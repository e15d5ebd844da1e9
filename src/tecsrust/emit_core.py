"""Renderers for the generated Rust sources.

One contract file per signature, one definition/instantiation file per
celltype, one impl skeleton per celltype with entry ports. All emitters
are pure, total model -> text functions: `linker.resolve` has already
reported everything that could stop them, so they never raise. Output is
deterministic, LF-terminated, and ends with exactly one trailing newline.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Dict, List

from . import naming
from .diagnostics import Record, Value
from .emit_rtos import (
    ITRONRS_PLUGIN, KERNEL_PREAMBLE_LINES, config_groups, escape_percent, file_text,
)
from .linker import EmissionPlan, PlannedWrite, ResolvedCell, ResolvedModel
from .model import CelltypeDef, ParamSpecifier, SignatureDef

INDENT = "  "


class WritePolicy(Enum):
    OVERWRITE = "overwrite"
    SKIP_IF_EXISTS = "skip-if-exists"


class GeneratedFile(Value):
    __slots__ = ("path", "content", "policy")


class Output(Record):
    """One output file, rendered by `emit(*args)` each time `content` is read and never kept:
    a build renders each output at its write, so it holds one output's text at a time.

    A render counts the text's lines into `count`. A skeleton's count is given ahead, from
    `skeleton_lines`: a regeneration keeps every skeleton that exists and never renders it.
    """

    __slots__ = ("path", "policy", "emit", "args", "count")
    _defaults = {"count": None}
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself

    @property
    def content(self) -> str:
        text = self.emit(*self.args).content
        self.count = text.count("\n")
        return text

    @property
    def lines(self) -> int:
        return self.content.count("\n") if self.count is None else self.count


def outputs(plan: EmissionPlan, model: ResolvedModel) -> List[Output]:
    """Every output `plan` owes, unrendered, in write order: contracts, definitions,
    skeletons, then one config file per factory target. Each path is the one `linker.resolve`
    checked: a core output's as `model.owners` holds it (a celltype's definition before its
    skeleton), a config file's as its writes' target. None is made again."""
    paths: Dict[int, List[str]] = {}  # a signature's or celltype's id -> the paths it owns
    for path, owner in model.owners["file"].items():
        paths.setdefault(id(owner), []).append(path)
    new = WritePolicy.OVERWRITE
    files = [Output(paths[id(sig)][0], new, emit_contract, (sig,)) for sig in plan.contract_sigs]
    files += [Output(paths[id(ct)][0], new, emit_definition, (ct, model.cells_of(ct.name), model))
              for ct in plan.definition_cts]
    files += [Output(paths[id(ct)][1], WritePolicy.SKIP_IF_EXISTS, emit_skeleton, (ct, model),
                     skeleton_lines(ct, model)) for ct in plan.skeleton_cts]
    files += [Output(target, new, emit_config, (writes,))
              for target, writes in config_groups(plan.config_writes).items()]
    return files


@functools.cache  # once per distinct parameter type; keyed by `_value_`: enums hash slowly in 3.11
def _param_type(c_type: str, specifier: str) -> str:
    return naming.map_param_type(c_type, ParamSpecifier(specifier))


def _method_sig(fn) -> str:
    args = "".join([f", {naming.rust_name(p.name)}: {_param_type(p.c_type, p.specifier._value_)}"
                    for p in fn.params])
    ret = f" -> {naming.map_base_type(fn.return_type)}" if fn.return_type != "void" else ""
    return f"fn {naming.rust_name(fn.name)}(&self{args}){ret}"


def emit_contract(sig: SignatureDef) -> GeneratedFile:
    """Render the public interface contract (trait) for a signature."""
    lines = [f"pub trait {naming.contract_name(sig.name)} {{",
             *(f"{INDENT}{_method_sig(fn)};" for fn in sig.functions), "}"]
    return GeneratedFile(naming.file_name("contract", sig.name), file_text(lines),
                         WritePolicy.OVERWRITE)


def _use_crate(*groups) -> str:
    """`use crate::{…};` over each group's modules sorted, groups in order, each module once."""
    modules = dict.fromkeys(m for names in groups
                            for m in sorted({naming.module_name(n) for n in names}))
    return "use crate::{" + ", ".join(naming.rust_name(m) + "::*" for m in modules) + "};"


def emit_definition(ct: CelltypeDef, cells: List[ResolvedCell],
                    model: ResolvedModel) -> GeneratedFile:
    """Render the definition/instantiation file for one celltype.

    Layout: imports, main record (ROM side: call-port references, attrs,
    and a reference to the lock-wrapped variable record), variable record
    (RAM side), one entry-port record per entry port, per-cell statics,
    and the inline get_cell_ref accessor returning the access tuple.
    Everything but the statics is the same for every cell, so it is
    derived once per celltype, and so is a `%` template of a cell's statics:
    each cell fills its holes with its static names and attr texts.
    """
    record = naming.record_name(ct.name)
    visible = [a for a in ct.attrs if not a.omit]
    attr_fields = [naming.rust_name(a.name) for a in visible]
    attr_types = [naming.map_base_type(a.c_type) for a in visible]
    call_fields = [naming.field_name(p.port_name) for p in ct.call_ports]
    type_params = (["T"] if len(ct.call_ports) == 1
                   else [f"T{i + 1}" for i in range(len(ct.call_ports))])
    bounds = [f"{tp}: {naming.contract_name(p.signature_name)}"
              for tp, p in zip(type_params, ct.call_ports)]
    # concrete entry type and celltype per call port, from the (homogeneous)
    # bindings; a celltype with call ports has cells, each binding every call port
    bound = [cells[0].bindings[p.port_name] for p in ct.call_ports]
    bound_cts = [rb.target_cell.celltype.name for rb in bound]
    bound_types = [naming.entry_impl_name(rb.target_entry.port_name, name)
                   for rb, name in zip(bound, bound_cts)]
    entry_types = [naming.entry_impl_name(p.port_name, ct.name) for p in ct.entry_ports]
    var_record = record + "Var"
    var_types = [naming.demangle_var_type(v.type_text) for v in ct.vars]
    var_lt = "<'a>" if any("'a" in t for t in var_types) else ""
    # records of celltypes with call ports or vars borrow ('a); type params need call ports
    lifetime = ["'a"] if ct.call_ports or ct.vars else []
    generics = "<" + ", ".join(lifetime + type_params) + ">" if lifetime else ""

    lines: List[str] = []
    if model.plugin_by_celltype.get(ct.name) == ITRONRS_PLUGIN:  # the kernel wrapper types
        lines.extend(KERNEL_PREAMBLE_LINES)
    if ct.vars:
        lines.append("use spin::Mutex;")
    if ct.ports:
        lines.append(_use_crate([p.signature_name for p in ct.call_ports], bound_cts,
                                [p.signature_name for p in ct.entry_ports]))
    if lines:
        lines.append("")

    if ct.call_ports:
        lines.append(f"pub struct {record}{generics}")
        lines.append("where")
        for bound in bounds:
            lines.append(f"{INDENT}{bound},")
        lines.append("{")
    else:
        lines.append(f"pub struct {record}{generics} {{")
    for field, tp in zip(call_fields, type_params):
        lines.append(f"{INDENT}pub {field}: &'a {tp},")
    for field, rust_type in zip(attr_fields, attr_types):
        lines.append(f"{INDENT}pub {field}: {rust_type},")
    if ct.vars:
        lines.append(f"{INDENT}pub variable: &'a Mutex<{var_record}{var_lt}>,")
    lines.append("}")
    lines.append("")

    if ct.vars:
        lines.append(f"pub struct {var_record}{var_lt}{{")
        for v, rust_type in zip(ct.vars, var_types):
            lines.append(f"{INDENT}pub {naming.rust_name(v.name)}: {rust_type},")
        lines.append("}")
        lines.append("")

    inner_args = lifetime + [t + "<'a>" for t in bound_types]
    inner = record + ("<" + ", ".join(inner_args) + ">" if inner_args else "")
    for entry_type in entry_types:
        lines.append(f"pub struct {entry_type}<'a>{{")
        lines.append(f"{INDENT}pub cell: &'a {inner},")
        lines.append("}")
        lines.append("")

    # a cell's statics: one `%` template, with a `%s` hole per name or attr text of the cell
    e = escape_percent
    static_type = record + ("<" + ", ".join(bound_types) + ">" if bound_types else "")
    block = [f"pub static %s: {e(static_type)} = {e(record)} {{",
             *(f"{INDENT}{e(field)}: &%s," for field in call_fields),
             *(f"{INDENT}{e(field)}: %s," for field in attr_fields),
             *[f"{INDENT}variable: &%s,"] * bool(ct.vars), "};", ""]
    if ct.vars:
        block += [f"pub static %s: Mutex<{e(var_record)}> = Mutex::new({e(var_record)} {{",
                  *(e(f"{INDENT}{naming.rust_name(v.name)}: {v.default.text},") for v in ct.vars),
                  "});", ""]
    for entry_type in map(e, entry_types):
        block += [f"pub static %s: {entry_type} = {entry_type} {{", f"{INDENT}cell: &%s,", "};", ""]
    statics = "\n".join(block)
    ports = [p.port_name for p in ct.call_ports]
    entries = len(ct.entry_ports)
    for rc in cells:
        names = naming.cell_statics(ct, rc.cell.name)  # record, entry ports', var record
        values = names[:1]
        for rb in map(rc.bindings.__getitem__, ports):
            values.append(naming.static_entry_name(rb.target_entry.port_name,
                                                   rb.target_cell.cell.name))
        values += rc.attr_texts
        if ct.vars:
            values += [names[-1]] * 2
        for entry in names[1:1 + entries]:
            values += entry, names[0]
        lines.append(statics % tuple(values))

    impl_generics = "<" + ", ".join(lifetime + bounds) + ">" if lifetime else ""
    tuple_types = [f"&{tp}" for tp in type_params] + [f"&{t}" for t in attr_types]
    tuple_exprs = [f"&self.{f}" for f in call_fields + attr_fields]
    if ct.vars:
        tuple_types.append(f"&Mutex<{var_record}{var_lt}>")
        tuple_exprs.append("self.variable")
    lines.append(f"impl{impl_generics} {record}{generics} {{")
    lines.append(f"{INDENT}#[inline]")
    lines.append(f"{INDENT}pub fn get_cell_ref{var_lt}(&self) -> ({', '.join(tuple_types)}) {{")
    lines.append(f"{INDENT * 2}(" + ", ".join(tuple_exprs) + ")")
    lines.append(f"{INDENT}}}")
    lines.append("}")

    return GeneratedFile(naming.file_name("definition", ct.name), file_text(lines),
                         WritePolicy.OVERWRITE)


def emit_skeleton(ct: CelltypeDef, model: ResolvedModel) -> GeneratedFile:
    """Render the impl stub file the component developer fills in.

    Never overwritten on regeneration: the bodies belong to the developer.
    """
    lines: List[str] = []
    if ct.vars:
        lines.append("use spin::Mutex;")
    lines.append(_use_crate([ct.name], [p.signature_name for p in ct.call_ports],
                            [p.signature_name for p in ct.entry_ports]))
    lines.append("")

    for i, port in enumerate(ct.entry_ports):
        if i:
            lines.append("")
        sig = model.signature_index[port.signature_name]
        trait = naming.contract_name(sig.name)
        entry_type = naming.entry_impl_name(port.port_name, ct.name)
        lines.append(f"impl {trait} for {entry_type}<'_>{{")
        for fn in sig.functions:
            lines.append(f"{INDENT}#[inline]")
            lines.append(f"{INDENT}{_method_sig(fn)} {{")
            lines.append(f"{INDENT * 2}let cell_ref = self.cell.get_cell_ref();")
            lines.append(f"{INDENT}}}")
        lines.append("}")

    return GeneratedFile(naming.file_name("skeleton", ct.name), file_text(lines),
                         WritePolicy.SKIP_IF_EXISTS)


def emit_config(writes: List[PlannedWrite]) -> GeneratedFile:
    """One factory config file: the lines of `writes`, which share a target, in plan order."""
    return GeneratedFile(writes[0].target_file, file_text([w.rendered_line for w in writes]),
                         WritePolicy.OVERWRITE)


def skeleton_lines(ct: CelltypeDef, model: ResolvedModel) -> int:
    """The number of lines in `emit_skeleton(ct, model).content`, without rendering it:
    the `use` lines and a blank, then per entry port a blank line before every
    impl block but the first, its `impl … {` and `}`, and four lines per function."""
    ports = ct.entry_ports
    return (bool(ct.vars) + 2 + 3 * len(ports) - bool(ports)
            + 4 * sum(len(model.signature_index[p.signature_name].functions) for p in ports))
