"""`emit_core.emit_definition` as tecsrust shipped it with each cell's statics written
line by line, kept as the reference.

`test_emit_core.py` renders generated units with it and with `emit_core.emit_definition`,
which fills one `%` template per celltype, and requires byte-identical files. The function
below is the original code, but that it returns the file's path and text, not a
`GeneratedFile`, and tests the celltype's plugin and ports itself. It owns every helper and
constant it computes with: below are copies of the `naming`, `emit_core` and `emit_rtos`
ones as they were when it was frozen. A reference that shares a helper with the code under
test cannot catch a fault in that helper, and no edit to `src/` can change what it gives.
"""

from __future__ import annotations

import re
from typing import List, Tuple

INDENT = "  "
KERNEL_PREAMBLE_LINES = (
    "use crate::kernel_cfg::*;",
    "use itron::abi::*;",
    "use itron::TaskRef::*;",
)
RUST_KEYWORDS = frozenset("""as async await break const continue crate dyn else enum extern
    false fn for if impl in let loop match mod move mut pub ref return self Self static struct
    super trait true type unsafe use where while abstract become box do final macro override
    priv try typeof unsized virtual yield""".split())
RUST_SCALARS = {"int8_t": "i8", "int16_t": "i16", "int32_t": "i32", "int64_t": "i64",
                "uint8_t": "u8", "uint16_t": "u16", "uint32_t": "u32", "uint64_t": "u64",
                "float": "f32", "double": "f64", "void": "()"}
_LOWER_UPPER = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_UPPER_WORD = re.compile(r"(?<=[A-Z])(?=[A-Z][a-z])")
_UNDERSCORES = re.compile(r"__+")
_REF_A_MUT = re.compile(r"^Ref_a_mut__(.+)__$")


def rust_name(name: str) -> str:
    return "r#" + name if name in RUST_KEYWORDS else name


def _camel(name: str) -> str:
    parts = [p for p in name.split("_") if p]
    return "".join(p[0].upper() + p[1:] for p in parts)


contract_name = record_name = _camel


def snake_case(name: str) -> str:
    s = _LOWER_UPPER.sub("_", name)
    s = _UPPER_WORD.sub("_", s)
    return _UNDERSCORES.sub("_", s).lower()


def field_name(port_name: str) -> str:
    return rust_name(snake_case(port_name))


def entry_impl_name(entry_port: str, celltype: str) -> str:
    return _camel(entry_port) + "For" + record_name(celltype)


def static_instance_name(cell_name: str) -> str:
    return cell_name.upper()


def static_var_name(cell_name: str) -> str:
    return cell_name.upper() + "VAR"


def static_entry_name(entry_port: str, cell_name: str) -> str:
    return entry_port.upper() + "FOR" + cell_name.upper()


def map_base_type(c_type: str) -> str:
    return RUST_SCALARS.get(c_type, c_type)


def demangle_var_type(mangled: str) -> str:
    if mangled.startswith("Option_"):
        return "Option<" + demangle_var_type(mangled[len("Option_"):]) + ">"
    m = _REF_A_MUT.match(mangled)
    return "&'a mut " + m.group(1) if m else mangled


def _finish(lines: List[str]) -> str:
    lines.append("")
    return "\n".join(lines)


def _use_crate(*groups) -> str:
    modules = dict.fromkeys(m for names in groups for m in sorted({snake_case(n) for n in names}))
    return "use crate::{" + ", ".join(rust_name(m) + "::*" for m in modules) + "};"


def emit_definition(ct, cells, model) -> Tuple[str, str]:
    """Render the definition/instantiation file for one celltype.

    Layout: imports, main record (ROM side: call-port references, attrs,
    and a reference to the lock-wrapped variable record), variable record
    (RAM side), one entry-port record per entry port, per-cell statics,
    and the inline get_cell_ref accessor returning the access tuple.
    Everything but the statics is the same for every cell, so it is
    derived once per celltype.
    """
    record = record_name(ct.name)
    visible = [a for a in ct.attrs if not a.omit]
    attr_fields = [rust_name(a.name) for a in visible]
    attr_types = [map_base_type(a.c_type) for a in visible]
    call_fields = [field_name(p.port_name) for p in ct.call_ports]
    type_params = (["T"] if len(ct.call_ports) == 1
                   else [f"T{i + 1}" for i in range(len(ct.call_ports))])
    bounds = [f"{tp}: {contract_name(p.signature_name)}"
              for tp, p in zip(type_params, ct.call_ports)]
    # concrete entry type and celltype per call port, from the (homogeneous)
    # bindings; a celltype with call ports has cells, each binding every call port
    bound = [cells[0].bindings[p.port_name] for p in ct.call_ports]
    bound_cts = [rb.target_cell.celltype.name for rb in bound]
    bound_types = [entry_impl_name(rb.target_entry.port_name, name)
                   for rb, name in zip(bound, bound_cts)]
    entry_types = [entry_impl_name(p.port_name, ct.name) for p in ct.entry_ports]
    var_record = record + "Var"
    var_types = [demangle_var_type(v.type_text) for v in ct.vars]
    var_lt = "<'a>" if any("'a" in t for t in var_types) else ""
    # records of celltypes with call ports or vars borrow ('a); type params need call ports
    lifetime = ["'a"] if ct.call_ports or ct.vars else []
    generics = "<" + ", ".join(lifetime + type_params) + ">" if lifetime else ""

    lines: List[str] = []
    if model.plugin_by_celltype.get(ct.name) == "ItronrsGenPlugin":
        lines.extend(KERNEL_PREAMBLE_LINES)
    if ct.vars:
        lines.append("use spin::Mutex;")
    if ct.call_ports or ct.entry_ports:
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
            lines.append(f"{INDENT}pub {rust_name(v.name)}: {rust_type},")
        lines.append("}")
        lines.append("")

    inner_args = lifetime + [t + "<'a>" for t in bound_types]
    inner = record + ("<" + ", ".join(inner_args) + ">" if inner_args else "")
    for entry_type in entry_types:
        lines.append(f"pub struct {entry_type}<'a>{{")
        lines.append(f"{INDENT}pub cell: &'a {inner},")
        lines.append("}")
        lines.append("")

    static_type = record + ("<" + ", ".join(bound_types) + ">" if bound_types else "")
    var_inits = [f"{INDENT}{rust_name(v.name)}: {v.default.text}," for v in ct.vars]
    for rc in cells:
        instance = static_instance_name(rc.cell.name)
        var_static = static_var_name(rc.cell.name)
        lines.append(f"pub static {instance}: {static_type} = {record} {{")
        for port, field in zip(ct.call_ports, call_fields):
            rb = rc.bindings[port.port_name]
            target = static_entry_name(rb.target_entry.port_name, rb.target_cell.cell.name)
            lines.append(f"{INDENT}{field}: &{target},")
        for field, text in zip(attr_fields, rc.attr_texts):
            lines.append(f"{INDENT}{field}: {text},")
        if ct.vars:
            lines.append(f"{INDENT}variable: &{var_static},")
        lines.append("};")
        lines.append("")
        if ct.vars:
            lines.append(f"pub static {var_static}: Mutex<{var_record}> = "
                         f"Mutex::new({var_record} {{")
            lines.extend(var_inits)
            lines.append("});")
            lines.append("")
        for port, entry_type in zip(ct.entry_ports, entry_types):
            lines.append(f"pub static {static_entry_name(port.port_name, rc.cell.name)}: "
                         f"{entry_type} = {entry_type} {{")
            lines.append(f"{INDENT}cell: &{instance},")
            lines.append("};")
            lines.append("")

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

    return snake_case(ct.name) + ".rs", _finish(lines)
