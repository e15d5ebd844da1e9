"""`emit_core.emit_definition` as tecsrust shipped it with each cell's statics written
line by line, kept as the reference.

`test_emit_core.py` renders generated units with it and with `emit_core.emit_definition`,
which fills one `%` template per celltype, and requires byte-identical files. The function
below is the original code, unchanged.
"""

from __future__ import annotations

from typing import List

from tecsrust import naming
from tecsrust.emit_core import INDENT, GeneratedFile, WritePolicy, _finish, _use_crate
from tecsrust.emit_rtos import KERNEL_PREAMBLE_LINES, uses_kernel_wrappers
from tecsrust.linker import ResolvedCell, ResolvedModel
from tecsrust.model import CelltypeDef


def emit_definition(ct: CelltypeDef, cells: List[ResolvedCell],
                    model: ResolvedModel) -> GeneratedFile:
    """Render the definition/instantiation file for one celltype.

    Layout: imports, main record (ROM side: call-port references, attrs,
    and a reference to the lock-wrapped variable record), variable record
    (RAM side), one entry-port record per entry port, per-cell statics,
    and the inline get_cell_ref accessor returning the access tuple.
    Everything but the statics is the same for every cell, so it is
    derived once per celltype.
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
    if uses_kernel_wrappers(model, ct):
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

    static_type = record + ("<" + ", ".join(bound_types) + ">" if bound_types else "")
    var_inits = [f"{INDENT}{naming.rust_name(v.name)}: {v.default.text}," for v in ct.vars]
    for rc in cells:
        instance = naming.static_instance_name(rc.cell.name)
        var_static = naming.static_var_name(rc.cell.name)
        lines.append(f"pub static {instance}: {static_type} = {record} {{")
        for port, field in zip(ct.call_ports, call_fields):
            rb = rc.bindings[port.port_name]
            target = naming.static_entry_name(rb.target_entry.port_name, rb.target_cell.cell.name)
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
            lines.append(f"pub static {naming.static_entry_name(port.port_name, rc.cell.name)}: "
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

    return GeneratedFile(naming.file_name("definition", ct.name), _finish(lines),
                         WritePolicy.OVERWRITE)
