"""Canonical CDL text for a unit: `parse_unit(render_unit(u))` equals `u`.

Tests use it to feed generated units (`strategies.py`) through the text
front end and to check that the parser reads back what it was given.
"""

from typing import List

from tecsrust.model import CdlUnit, InitKind, Initializer

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


def _quote(s: str) -> str:
    return '"' + "".join(_STRING_ESCAPES.get(c, c) for c in s) + '"'


def _render_initializer(init: Initializer) -> str:
    if init.kind is InitKind.C_EXP:
        return f"C_EXP({_quote(init.text)})"
    return init.text


def _render_directive(d) -> str:
    return f"[generate({d.plugin_name}, {_quote(d.argument)})]"


def render_unit(unit: CdlUnit) -> str:
    """Canonical CDL text; parse_unit(render_unit(u)) equals u."""
    out: List[str] = []

    for sig in unit.signatures:
        out.append(f"signature {sig.name} {{")
        for f in sig.functions:
            if f.params:
                params = ", ".join(
                    f"[{p.specifier.value}] {p.c_type}{'*' * p.pointer_depth} {p.name}"
                    for p in f.params)
            else:
                params = "void"
            out.append(f"    {f.return_type} {f.name}( {params} );")
        out.append("};")
        out.append("")

    for ct in unit.celltypes:
        if ct.generate_directive:
            out.append(_render_directive(ct.generate_directive))
        out.append(f"celltype {ct.name} {{")
        for p in ct.ports:
            mods = "".join(f"[{m}] " for m in sorted(p.modifiers))
            out.append(f"    {mods}{p.direction.value} {p.signature_name} {p.port_name};")
        if ct.attrs:
            out.append("    attr {")
            for a in ct.attrs:
                omit = "[omit] " if a.omit else ""
                default = f" = {_render_initializer(a.default)}" if a.default else ""
                out.append(f"        {omit}{a.c_type} {a.name}{default};")
            out.append("    };")
        if ct.vars:
            out.append("    var {")
            for v in ct.vars:
                default = f" = {_render_initializer(v.default)}" if v.default else ""
                out.append(f"        {v.type_text} {v.name}{default};")
            out.append("    };")
        for block in ct.factory_blocks:
            out.append(f"    {block.scope.value} {{")
            for w in block.writes:
                out.append(f"        write({_quote(w.target_file)}, {_quote(w.template)});")
            out.append("    };")
        out.append("};")
        out.append("")

    for cell in unit.cells:
        if cell.generate_directive:
            out.append(_render_directive(cell.generate_directive))
        out.append(f"cell {cell.celltype_name} {cell.name} {{")
        for b in cell.bindings:
            out.append(f"    {b.call_port_name} = {b.target_cell_name}.{b.target_entry_port_name};")
        for init in cell.attr_inits:
            out.append(f"    {init.attr_name} = {_render_initializer(init.value)};")
        out.append("};")
        out.append("")

    return "\n".join(out[:-1]) + "\n" if out else ""
