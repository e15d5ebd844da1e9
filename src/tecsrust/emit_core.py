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
from typing import List

from . import naming
from .emit_rtos import KERNEL_PREAMBLE_LINES, uses_kernel_wrappers
from .linker import ResolvedCell, ResolvedModel
from .model import CelltypeDef, ParamSpecifier, Record, SignatureDef, Value

INDENT = "  "


class WritePolicy(Enum):
    OVERWRITE = "overwrite"
    SKIP_IF_EXISTS = "skip-if-exists"


class GeneratedFile(Value):
    __slots__ = ("path", "content", "policy")

    def __init__(self, path: str, content: str, policy: WritePolicy):
        self.path, self.content, self.policy = path, content, policy

    @property
    def lines(self) -> int:
        return self.content.count("\n")


class SkeletonFile(Record):
    """A skeleton output that `emit_skeleton` renders each time `content` is read.

    A regeneration keeps every skeleton that exists and never reads it, so a
    kept skeleton is never rendered; `lines` is `skeleton_lines`.
    """

    __slots__ = ("path", "lines", "ct", "model")
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal only to itself
    policy = WritePolicy.SKIP_IF_EXISTS

    def __init__(self, path: str, lines: int, ct: CelltypeDef, model: ResolvedModel):
        self.path, self.lines, self.ct, self.model = path, lines, ct, model

    @property
    def content(self) -> str:
        return emit_skeleton(self.ct, self.model).content


def _escape(text: str) -> str:
    """`text` as a literal part of a `%` template."""
    return text.replace("%", "%%")


def _finish(lines: List[str]) -> str:
    return "\n".join(lines) + "\n"


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
    return GeneratedFile(naming.file_name("contract", sig.name), _finish(lines),
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

    # a cell's statics: one `%` template, with a `%s` hole per name or attr text of the cell
    e = _escape
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
    entries = [p.port_name for p in ct.entry_ports]
    for rc in cells:
        name = rc.cell.name
        values = [naming.static_instance_name(name)]
        for rb in map(rc.bindings.__getitem__, ports):
            values.append(naming.static_entry_name(rb.target_entry.port_name,
                                                   rb.target_cell.cell.name))
        values += rc.attr_texts
        if ct.vars:
            values += [naming.static_var_name(name)] * 2
        for port in entries:
            values += naming.static_entry_name(port, name), values[0]
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

    return GeneratedFile(naming.file_name("definition", ct.name), _finish(lines),
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

    return GeneratedFile(naming.file_name("skeleton", ct.name), _finish(lines),
                         WritePolicy.SKIP_IF_EXISTS)


def skeleton_lines(ct: CelltypeDef, model: ResolvedModel) -> int:
    """The number of lines in `emit_skeleton(ct, model).content`, without rendering it:
    the `use` lines and a blank, then per entry port a blank line before every
    impl block but the first, its `impl … {` and `}`, and four lines per function."""
    ports = ct.entry_ports
    return (bool(ct.vars) + 2 + 3 * len(ports) - bool(ports)
            + 4 * sum(len(model.signature_index[p.signature_name].functions) for p in ports))
