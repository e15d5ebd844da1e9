"""Resolve parsed units into a linked component graph and plan the output file set."""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from . import naming
from .emit_rtos import MacroError, substitute_macros
from .model import (
    AttrDecl, CdlUnit, CellDef, CelltypeDef, Diagnostic, FactoryScope, InitKind,
    PortDecl, Record, SignatureDef, error, has_errors, printable,
)

_CLASH_CODES = {"file": "path-collision", "type": "duplicate-type", "static": "duplicate-static",
                "field": "duplicate-field"}
_KINDS = {SignatureDef: "signature", CelltypeDef: "celltype", CellDef: "cell",
          PortDecl: "call port", AttrDecl: "attr"}


class ResolvedBinding(Record):
    __slots__ = ("call_port", "target_cell", "target_entry")


class ResolvedCell(Record):
    __slots__ = ("cell", "celltype", "bindings",
                 "attr_texts")  # generating celltypes only: text per visible attr, macros filled
    _defaults = {"attr_texts": ()}
    _fresh = {"bindings": dict}


class ResolvedModel(Record):
    __slots__ = ("cells", "signature_index", "celltype_index",
                 "plugin_by_celltype",  # celltype name -> plugin name
                 "cells_by_celltype",  # in declaration order
                 "owners",  # 'file'/'type' -> output path or name -> first owner
                 "config_writes")  # rendered factory lines, in plan order

    def cells_of(self, celltype_name: str) -> List[ResolvedCell]:
        return self.cells_by_celltype.get(celltype_name, [])


def resolve(units: List[CdlUnit], default_plugin: Optional[str] = None
            ) -> Tuple[Optional[ResolvedModel], List[Diagnostic]]:
    """Link units into a ResolvedModel.

    Resolution keeps going after a failure so one pass reports every
    problem; the model is returned only when no errors were found.
    `default_plugin` stands in for absent [generate(...)] directives.
    It also checks, over generating celltypes, every rule the emitters rely
    on (bad-name, no-binding-context, unrecognized-mangling, uninitialized-
    attribute/-variable, C_EXP `$macro$` errors), so a clean model renders.
    Only when all of them pass does it render and check the factory writes.
    """
    diags: List[Diagnostic] = []
    sig_index: Dict[str, SignatureDef] = {}
    ct_index: Dict[str, CelltypeDef] = {}

    for unit in units:
        for index, nodes in ((sig_index, unit.signatures), (ct_index, unit.celltypes)):
            for node in nodes:
                if node.name in index:
                    diags.append(error("duplicate-definition", f"{_label(node)} already defined",
                                       node.location))
                else:
                    index[node.name] = node

    # port signatures must exist
    for ct in ct_index.values():
        for port in ct.ports:
            if port.signature_name not in sig_index:
                diags.append(error(
                    "unknown-signature",
                    f"port '{port.port_name}' of celltype '{ct.name}' references "
                    f"unknown signature '{port.signature_name}'", port.location))

    cell_index: Dict[str, ResolvedCell] = {}
    cells: List[ResolvedCell] = []
    cells_by_ct: Dict[str, List[ResolvedCell]] = {name: [] for name in ct_index}
    for unit in units:
        for cell in unit.cells:
            if cell.name in cell_index:
                diags.append(error("duplicate-cell",
                                   f"cell '{cell.name}' already defined", cell.location))
                continue
            ct = ct_index.get(cell.celltype_name)
            if ct is None:
                diags.append(error(
                    "unknown-celltype",
                    f"cell '{cell.name}' has unknown celltype '{cell.celltype_name}'",
                    cell.location))
                continue
            rc = ResolvedCell(cell, ct, {})
            cell_index[cell.name] = rc
            cells.append(rc)
            cells_by_ct[ct.name].append(rc)

    # per celltype, once: call ports, entry ports (the first of a name wins) and attr names
    facts = {name: ({p.port_name: p for p in ct.call_ports},
                    {p.port_name: p for p in reversed(ct.entry_ports)}, {a.name for a in ct.attrs})
             for name, ct in ct_index.items()}
    for rc in cells:
        call_ports, entries, attr_names = facts[rc.celltype.name]
        for b in rc.cell.bindings:
            if b.call_port_name not in call_ports:
                code = ("not-a-call-port" if b.call_port_name in entries
                        else "unknown-call-port")
                diags.append(error(
                    code,
                    f"cell '{rc.cell.name}' binds unknown call port '{b.call_port_name}'",
                    b.location))
                continue
            target = cell_index.get(b.target_cell_name)
            if target is None:
                diags.append(error(
                    "unknown-cell",
                    f"binding target cell '{b.target_cell_name}' does not exist",
                    b.location))
                continue
            entry = facts[target.celltype.name][1].get(b.target_entry_port_name)
            if entry is None:
                diags.append(error(
                    "unknown-entry-port",
                    f"cell '{b.target_cell_name}' has no entry port "
                    f"'{b.target_entry_port_name}'", b.location))
                continue
            call_port = call_ports[b.call_port_name]
            if call_port.signature_name != entry.signature_name:
                diags.append(error(
                    "signature-mismatch",
                    f"call port '{b.call_port_name}' ({call_port.signature_name}) cannot "
                    f"bind entry port '{b.target_entry_port_name}' ({entry.signature_name})",
                    b.location))
                continue
            rc.bindings[b.call_port_name] = ResolvedBinding(call_port, target, entry)
        for port_name in call_ports:
            if port_name not in rc.bindings and rc.cell.binding_for(port_name) is None:
                diags.append(error(
                    "unbound-call-port",
                    f"call port '{port_name}' of cell '{rc.cell.name}' is not bound",
                    rc.cell.location))
        for init in rc.cell.attr_inits:
            if init.attr_name not in attr_names:
                diags.append(error(
                    "unknown-attribute",
                    f"cell '{rc.cell.name}' initializes unknown attr '{init.attr_name}'",
                    init.location))

    # all cells of one celltype must bind a call port to one entry port of one
    # target celltype, so definition files can use a concrete entry type
    for ct in ct_index.values():
        for port in ct.call_ports:
            targets = {(rb.target_cell.celltype.name, rb.target_entry.port_name)
                       for rc in cells_by_ct[ct.name]
                       if (rb := rc.bindings.get(port.port_name)) is not None}
            if len(targets) > 1:
                cts = sorted({name for name, _ in targets})
                what = (f"cells of different celltypes ({', '.join(cts)})" if len(cts) > 1
                        else f"different entry ports of celltype '{cts[0]}' "
                        f"({', '.join(sorted(entry for _, entry in targets))})")
                diags.append(error(
                    "heterogeneous-binding-unsupported",
                    f"call port '{port.port_name}' of celltype '{ct.name}' binds {what}",
                    port.location))

    plugin_by_ct = _assign_plugins(ct_index, cells, default_plugin, diags)
    # crate-wide, as the modules glob-import each other; Rust keeps types and values apart
    owners: Dict[str, Dict[str, object]] = {"file": {}, "type": {}}
    generating = _generating(ct_index, plugin_by_ct)
    _check_generating(generating, sig_index, cells_by_ct, owners, diags)
    writes = [] if has_errors(diags) else _render_factory(generating, cells, owners, diags)

    if has_errors(diags):
        return None, diags
    return ResolvedModel(cells, sig_index, ct_index, plugin_by_ct, cells_by_ct, owners,
                         writes), diags


def _assign_plugins(ct_index, cells, default_plugin, diags) -> Dict[str, str]:
    plugin_by_ct: Dict[str, str] = {}
    for ct in ct_index.values():
        if ct.generate_directive is not None:
            plugin_by_ct[ct.name] = ct.generate_directive.plugin_name
    for rc in cells:
        d = rc.cell.generate_directive
        if d is None:
            continue
        current = plugin_by_ct.get(rc.celltype.name)
        if current is None:
            plugin_by_ct[rc.celltype.name] = d.plugin_name
        elif current != d.plugin_name:
            diags.append(error(
                "conflicting-plugin-directives",
                f"cell '{rc.cell.name}' requests plugin '{d.plugin_name}' but "
                f"celltype '{rc.celltype.name}' uses '{current}'", d.location))
    if default_plugin is not None:
        for ct in ct_index.values():
            plugin_by_ct.setdefault(ct.name, default_plugin)
    return plugin_by_ct


def _generating(ct_index, plugin_by_ct) -> List[CelltypeDef]:
    return [ct for ct in ct_index.values() if ct.name in plugin_by_ct]


def _check_generating(generating, sig_index, cells_by_ct, owners, diags) -> None:
    """Report every entity that would stop an emitter or share an output name, enter
    each file and type name in `owners`, and keep each cell's rendered attr texts.
    Order: bindings into non-generating celltypes; bad names, each once; contracts' names;
    then per celltype its names, record fields, var types, call ports without cells, attrs
    and statics cell by cell, and vars."""
    written = {ct.name for ct in generating}
    diags.extend(error("non-generating-target", f"cell '{rc.cell.name}' binds '{port}' to cell "
                       f"'{rb.target_cell.cell.name}', whose celltype '{t}' generates no Rust",
                       rc.cell.binding_for(port).location)
                 for ct in generating for rc in cells_by_ct[ct.name]
                 for port, rb in rc.bindings.items()
                 if (t := rb.target_cell.celltype.name) not in written)
    named = {(kind, e.name): e for kind, e in _named(generating, sig_index)}
    for (kind, name), e in named.items():
        mapped = naming.contract_name(name) if kind == "signature" else naming.record_name(name)
        if len(name) < 2:
            diags.append(error("bad-name", f"{kind} name '{name}' too short", e.location))
        # '__' maps to ''; 'self' to module `self` and type `Self`, which `r#` cannot write
        elif not mapped.isidentifier() or {mapped, naming.module_name(name)} & naming.NOT_RAW:
            diags.append(error(
                "bad-name", f"{kind} name '{name}' does not map to a Rust identifier", e.location))
    for kind, name, loc in _unwritable(generating, named, sig_index):
        diags.append(error("bad-name", f"{kind} name '{name}' is not a Rust identifier", loc))

    for sig in (sig_index[n] for kind, n in named if kind == "signature"):
        _claim(owners, sig, diags, file=[naming.file_name("contract", sig.name)],
               type=[naming.contract_name(sig.name)])
    statics: Dict[str, CellDef] = {}  # a namespace too, but no later phase reads it
    for ct in generating:
        record = naming.record_name(ct.name)
        _claim(owners, ct, diags, file=[naming.file_name(kind, ct.name) for kind in
                                        ["definition"] + ["skeleton"] * bool(ct.entry_ports)],
               type=[record] + [record + "Var"] * bool(ct.vars)
               + [naming.entry_impl_name(p.port_name, ct.name) for p in ct.entry_ports])
        visible = [a for a in ct.attrs if not a.omit]
        fields: Dict[str, object] = {"variable": ct} if ct.vars else {}  # one record's fields
        members = [(p, naming.field_name(p.port_name)) for p in ct.call_ports]
        for member, name in members + [(a, naming.rust_name(a.name)) for a in visible]:
            if fields.setdefault(name, member) is not member:
                _claim({"field": fields}, member, diags, field=[name])
        for v in ct.vars:
            residue = naming.unrecognized_mangling(v.type_text)
            if residue is not None:
                diags.append(error("unrecognized-mangling",
                                   f"cannot demangle var type '{residue}'", ct.location))
        cells = cells_by_ct[ct.name]
        if not cells:
            for port in ct.call_ports:
                diags.append(error(
                    "no-binding-context",
                    f"celltype '{ct.name}' has call port '{port.port_name}' but no "
                    f"bound cell to fix its concrete entry type", port.location))
            continue
        defaults, pieces = _defaults(ct), {}
        for rc in cells:
            cell = rc.cell
            rc.attr_texts = tuple([_attr_text(ct, cell, a, defaults, pieces, diags)
                                   for a in visible])
            keys = [naming.static_instance_name(cell.name)]
            for port in ct.entry_ports:
                keys.append(naming.static_entry_name(port.port_name, cell.name))
            if ct.vars:
                keys.append(naming.static_var_name(cell.name))
            for static in keys:
                if statics.setdefault(static, cell) is not cell or keys.count(static) > 1:
                    _claim({"static": statics}, cell, diags, static=keys)
                    break
        for v in ct.vars:
            if v.default is None:
                diags.append(error(
                    "uninitialized-variable",
                    f"var '{v.name}' of celltype '{ct.name}' has no initializer",
                    v.location))


def _claim(owners, owner, diags, **names) -> None:
    """Enter an entity's names in `owners`; report the first that is held already, if any."""
    keys = [(ns, name) for ns, group in names.items() for name in group]
    firsts = [owners[ns].setdefault(name, owner) for ns, name in keys]
    for i, (ns, name) in enumerate(keys):
        if firsts[i] is not owner or keys[i] in keys[:i]:
            diags.append(error(_CLASH_CODES[ns], f"{_label(owner)} emits {ns} '{name}', "
                               f"as {_label(firsts[i])} does", owner.location))
            return


def _label(node) -> str:
    return f"{_KINDS[type(node)]} '{node.port_name if type(node) is PortDecl else node.name}'"


def _named(generating, sig_index):
    """The celltypes and signatures whose names the emitters map. A binding target is one
    of `generating`, or the build has failed with `non-generating-target`."""
    for ct in generating:
        yield "celltype", ct
        yield from (("signature", sig_index[p.signature_name])
                    for p in ct.ports if p.signature_name in sig_index)


def _unwritable(generating, named, sig_index):
    """(kind, name, location) of each emitted member whose Rust name `r#` cannot write."""
    bad = naming.NOT_RAW
    for ct in generating:
        yield from (("port", p.port_name, p.location) for p in ct.call_ports
                    if naming.snake_case(p.port_name) in bad)
        yield from (("attr", a.name, a.location) for a in ct.attrs if not a.omit and a.name in bad)
        yield from (("var", v.name, v.location) for v in ct.vars if v.name in bad)
    for sig in (sig_index[n] for kind, n in named if kind == "signature"):
        yield from (("function", f.name, f.location) for f in sig.functions if f.name in bad)
        yield from (("parameter", p.name, p.location)
                    for f in sig.functions for p in f.params if p.name in bad)


def _defaults(ct: CelltypeDef) -> Tuple[Dict[str, str], Set[str]]:
    """Each declared attr's default text, the last one given winning; and each declared attr."""
    return {a.name: a.default.text for a in ct.attrs if a.default is not None}, {
        a.name for a in ct.attrs}


def macro_table(ct: CelltypeDef, cell: Optional[CellDef], defaults) -> Dict[str, str]:
    """The values that fill `$macro$` holes in the scope of `cell`, or of `ct` when cell is
    None: `$ct$`, then `$cell$`, then a declared attr's text (the cell's first initializer of
    it, else its default), from `defaults` as `_defaults(ct)` gives them. [omit] attrs count:
    they exist to feed the factory. `substitute_macros` reports a hole with no value."""
    texts, declared = defaults
    table = texts.copy()
    if cell is None:
        table.pop("cell", None)
    else:
        for init in reversed(cell.attr_inits):  # so the first initializer of an attr wins
            if init.attr_name in declared:
                table[init.attr_name] = init.value.text
        table["cell"] = cell.name
    table["ct"] = ct.name
    return table


def _attr_text(ct: CelltypeDef, cell: CellDef, attr, defaults, pieces, diags) -> str:
    """The text of `attr` in `cell`, holes filled; a default's template is prepared once per
    `pieces` table, a cell's own text per call: they may differ in every cell."""
    init = cell.init_for(attr.name) or attr.default
    if init is None:
        diags.append(error(
            "uninitialized-attribute",
            f"attr '{attr.name}' of cell '{cell.name}' has neither a default "
            f"nor a cell initializer", cell.location))
        return ""
    if init.kind is InitKind.C_EXP and "$" in init.text:
        try:
            return substitute_macros(init.text, macro_table(ct, cell, defaults),
                                     pieces if init is attr.default else {})
        except MacroError as exc:
            diags.append(error("unresolved-macro", str(exc), cell.location))
    return init.text


class PlannedWrite(Record):
    __slots__ = ("celltype",
                 "cell",  # None for per-celltype FACTORY writes
                 "target_template", "line_template",
                 "target_file",  # the rendered target without its empty and '.' parts
                 "rendered_line")


def _render_factory(generating, cells, owners, diags) -> List[PlannedWrite]:
    """Render every factory write in plan order: each generating celltype's FACTORY
    writes first, then its cells' factory writes in cell declaration order.

    Holes are filled from one `macro_table` per celltype or cell scope that has writes,
    and each distinct template is prepared once. A template whose only holes are `$ct$`,
    if any, is filled once per celltype. Each distinct target is
    checked once, at its first write: it must name a file inside `--out`, with no
    control character, that no core emitter writes, and no output may need its
    path, or a parent of it, as both a file and a directory.
    """
    def writes_of(ct, scope):
        return [w for block in ct.factory_blocks if block.scope is scope for w in block.writes]

    per_cell = {ct.name: ws for ct in generating if (ws := writes_of(ct, FactoryScope.PER_CELL))}
    scopes = [(ct, None, ws) for ct in generating
              if (ws := writes_of(ct, FactoryScope.PER_CELLTYPE))]
    scopes += [(rc.celltype, rc.cell, per_cell[rc.celltype.name])
               for rc in cells if rc.celltype.name in per_cell]
    rendered: List[PlannedWrite] = []
    paths: Dict[str, str] = {}  # rendered target -> `target_file`
    files, dirs = set(owners["file"]), set()  # each output file, each target's parents
    pieces: Dict[str, tuple] = {}  # template -> its `%` format and hole getter
    fixed: Dict[str, Dict[str, str]] = {}  # celltype -> template -> fill, if no scope changes it
    defaults = {ct.name: _defaults(ct) for ct in generating if ct.factory_blocks}
    for ct in generating:
        ct_only = macro_table(ct, None, ({}, ()))  # no value but `$ct$`
        fixed[ct.name] = done = {}
        for t in {t for block in ct.factory_blocks for w in block.writes
                  for t in (w.target_file, w.template)}:
            try:
                done[t] = substitute_macros(t, ct_only, pieces)
            except MacroError:  # filled per scope, so each write reports its own error
                pass
    for ct, cell, writes in scopes:
        values, done = macro_table(ct, cell, defaults[ct.name]), fixed[ct.name]
        for w in writes:
            try:
                target = done.get(w.target_file) or substitute_macros(w.target_file, values, pieces)
                line = done.get(w.template) or substitute_macros(w.template, values, pieces)
            except MacroError as exc:
                diags.append(error("unresolved-macro", str(exc), w.location))
                continue
            if target not in paths:
                parts = [p for p in target.split("/") if p not in ("", ".")]
                path = paths[target] = "/".join(parts)
                parents = ["/".join(parts[:i]) for i in range(1, len(parts))]
                both = [p for p in parents if p in files] + [path] * (path in dirs)
                shown = printable(target)  # a control character is refused, and shown escaped
                if target[:1] == "/" or ".." in parts or not parts or shown != target:
                    diags.append(error("write-outside-out", f"factory target '{shown}' "
                                       "is not a file inside --out", w.location))
                elif path in owners["file"]:
                    diags.append(error("path-collision", f"factory target '{target}' "
                                       "names a file the core emitters write", w.location))
                elif both and path not in files:
                    diags.append(error("path-collision", f"factory target '{target}' uses "
                                       f"'{both[0]}' as a file and as a directory", w.location))
                files.add(path)
                dirs.update(parents)
            rendered.append(PlannedWrite(ct, cell, w.target_file, w.template, paths[target], line))
    return rendered


class GenerationReport(Record):
    __slots__ = ("file_lines", "skeleton_files")
    _fresh = {"file_lines": dict, "skeleton_files": set}

    @property
    def auto_total(self) -> int:
        return sum(n for p, n in self.file_lines.items()
                   if p not in self.skeleton_files)

    @property
    def skeleton_total(self) -> int:
        return sum(n for p, n in self.file_lines.items()
                   if p in self.skeleton_files)


class EmissionPlan(Record):
    __slots__ = ("contract_sigs", "definition_cts", "skeleton_cts", "config_writes",
                 "files")  # the outputs, unrendered (`emit_core.outputs`)
    _fresh = {"files": list}

    def skeleton_files(self) -> List[str]:
        return [naming.file_name("skeleton", ct.name) for ct in self.skeleton_cts]

    @property
    def report(self) -> GenerationReport:
        """Each output's line count: counted when it was rendered to be written or, for a
        skeleton, from its signatures; an output not yet rendered is rendered to count it."""
        return GenerationReport({f.path: f.lines for f in self.files}, set(self.skeleton_files()))


def plan_emission(model: ResolvedModel) -> EmissionPlan:
    """List the files a resolved model owes, before the core emitters render them.

    Contracts: the signatures that own a file in `model.owners`, one per
    signature a generating celltype's port references. Definitions: one per
    generating celltype. Skeletons: one per generating celltype with at
    least one entry port. Config writes: the factory lines `resolve` rendered.
    """
    generating = _generating(model.celltype_index, model.plugin_by_celltype)

    contract_sigs = [e for e in model.owners["file"].values() if isinstance(e, SignatureDef)]

    skeleton_cts = [ct for ct in generating if ct.entry_ports]
    return EmissionPlan(contract_sigs, generating, skeleton_cts, model.config_writes)
