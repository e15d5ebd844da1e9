"""Renderers for the generated Rust sources.

One contract file per signature, one definition/instantiation file per
celltype, one impl skeleton per celltype with entry ports. All emitters
are pure, total model -> text functions: `linker.resolve` has already
reported everything that could stop them, so they never raise. Output is
deterministic, LF-terminated, and ends with exactly one trailing newline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List

from . import naming
from .emit_rtos import KERNEL_PREAMBLE_LINES, uses_kernel_wrappers
from .linker import ResolvedCell, ResolvedModel
from .model import CelltypeDef, SignatureDef

INDENT = "  "


class WritePolicy(Enum):
    OVERWRITE = "overwrite"
    SKIP_IF_EXISTS = "skip-if-exists"


@dataclass(slots=True, unsafe_hash=True)
class GeneratedFile:
    path: str
    content: str
    policy: WritePolicy


def _finish(lines: List[str]) -> str:
    return "\n".join(lines) + "\n"


def _method_sig(fn) -> str:
    args = "".join([f", {naming.rust_name(p.name)}: {naming.map_param_type(p.c_type, p.specifier)}"
                    for p in fn.params])
    ret = f" -> {naming.map_base_type(fn.return_type)}" if fn.return_type != "void" else ""
    return f"fn {naming.rust_name(fn.name)}(&self{args}){ret}"


def emit_contract(sig: SignatureDef) -> GeneratedFile:
    """Render the public interface contract (trait) for a signature."""
    lines = [f"pub trait {naming.contract_name(sig.name)} {{",
             *(f"{INDENT}{_method_sig(fn)};" for fn in sig.functions), "}"]
    return GeneratedFile(naming.file_name("contract", sig.name), _finish(lines),
                         WritePolicy.OVERWRITE)


class _DefinitionContext:
    """What emit_definition derives from a celltype, once per celltype: names,
    types and field lists the same for every cell. `_render_cell_statics`
    reads per cell only its static names, bindings and attr texts."""

    def __init__(self, ct: CelltypeDef, cells: List[ResolvedCell]):
        self.ct = ct
        self.record = naming.record_name(ct.name)
        self.visible_attrs = [a for a in ct.attrs if not a.omit]
        self.attr_fields = [naming.rust_name(a.name) for a in self.visible_attrs]
        self.call_fields = [naming.field_name(p.port_name) for p in ct.call_ports]
        self.entry_types = [naming.entry_impl_name(p.port_name, ct.name) for p in ct.entry_ports]
        self.var_inits = [f"{INDENT}{naming.rust_name(v.name)}: {v.default.text},"
                          for v in ct.vars]
        self.var_types = {v.name: naming.demangle_var_type(v.type_text) for v in ct.vars}
        self.var_record = self.record + "Var" if ct.vars else None
        self.var_has_lifetime = any("'a" in t for t in self.var_types.values())
        self.has_lifetime = bool(ct.call_ports or ct.vars)
        if len(ct.call_ports) == 1:
            self.type_params = ["T"]
        else:
            self.type_params = [f"T{i + 1}" for i in range(len(ct.call_ports))]
        # concrete entry type and celltype per call port, from the (homogeneous)
        # bindings; a celltype with call ports has cells, each binding every call port
        bound = [cells[0].bindings[p.port_name] for p in ct.call_ports]
        self.bound_cts = [rb.target_cell.celltype.name for rb in bound]
        self.bound_types = [naming.entry_impl_name(rb.target_entry.port_name, name)
                            for rb, name in zip(bound, self.bound_cts)]
        self.static_type = self.record + ("<" + ", ".join(self.bound_types) + ">" if bound else "")

    def generic_params(self) -> List[str]:
        return (["'a"] if self.has_lifetime else []) + self.type_params


def _definition_imports(ctx: _DefinitionContext) -> List[str]:
    call_contracts = sorted({naming.module_name(p.signature_name) for p in ctx.ct.call_ports})
    bound_cts = sorted({naming.module_name(ct_name) for ct_name in ctx.bound_cts})
    entry_contracts = sorted({naming.module_name(p.signature_name) for p in ctx.ct.entry_ports})
    return [naming.rust_name(m)
            for m in dict.fromkeys(call_contracts + bound_cts + entry_contracts)]


def emit_definition(ct: CelltypeDef, cells: List[ResolvedCell],
                    model: ResolvedModel) -> GeneratedFile:
    """Render the definition/instantiation file for one celltype.

    Layout: imports, main record (ROM side: call-port references, attrs,
    and a reference to the lock-wrapped variable record), variable record
    (RAM side), one entry-port record per entry port, per-cell statics,
    and the inline get_cell_ref accessor returning the access tuple.
    """
    ctx = _DefinitionContext(ct, cells)
    lines: List[str] = []

    if uses_kernel_wrappers(model, ct):
        lines.extend(KERNEL_PREAMBLE_LINES)
    if ct.vars:
        lines.append("use spin::Mutex;")
    imports = _definition_imports(ctx)
    if imports:
        lines.append("use crate::{" + ", ".join(m + "::*" for m in imports) + "};")
    if lines:
        lines.append("")

    _render_main_struct(ctx, lines)
    _render_var_struct(ctx, lines)
    _render_entry_structs(ctx, lines)
    for rc in cells:
        _render_cell_statics(ctx, rc, lines)
    _render_accessor(ctx, lines)

    return GeneratedFile(naming.file_name("definition", ct.name), _finish(lines),
                         WritePolicy.OVERWRITE)


def _render_main_struct(ctx: _DefinitionContext, lines: List[str]) -> None:
    generics = ctx.generic_params()
    head = f"pub struct {ctx.record}"
    if generics:
        head += "<" + ", ".join(generics) + ">"
    if ctx.ct.call_ports:
        lines.append(head)
        lines.append("where")
        for tp, port in zip(ctx.type_params, ctx.ct.call_ports):
            lines.append(f"{INDENT}{tp}: {naming.contract_name(port.signature_name)},")
        lines.append("{")
    else:
        lines.append(head + " {")
    for tp, field in zip(ctx.type_params, ctx.call_fields):
        lines.append(f"{INDENT}pub {field}: &'a {tp},")
    for attr, field in zip(ctx.visible_attrs, ctx.attr_fields):
        lines.append(f"{INDENT}pub {field}: {naming.map_base_type(attr.c_type)},")
    if ctx.var_record:
        lt = "<'a>" if ctx.var_has_lifetime else ""
        lines.append(f"{INDENT}pub variable: &'a Mutex<{ctx.var_record}{lt}>,")
    lines.append("}")
    lines.append("")


def _render_var_struct(ctx: _DefinitionContext, lines: List[str]) -> None:
    if not ctx.var_record:
        return
    lt = "<'a>" if ctx.var_has_lifetime else ""
    lines.append(f"pub struct {ctx.var_record}{lt}{{")
    for v in ctx.ct.vars:
        lines.append(f"{INDENT}pub {naming.rust_name(v.name)}: {ctx.var_types[v.name]},")
    lines.append("}")
    lines.append("")


def _entry_record_inner_type(ctx: _DefinitionContext) -> str:
    args = (["'a"] if ctx.has_lifetime else []) + [t + "<'a>" for t in ctx.bound_types]
    inner = ctx.record
    if args:
        inner += "<" + ", ".join(args) + ">"
    return inner


def _render_entry_structs(ctx: _DefinitionContext, lines: List[str]) -> None:
    inner = _entry_record_inner_type(ctx)
    for name in ctx.entry_types:
        lines.append(f"pub struct {name}<'a>{{")
        lines.append(f"{INDENT}pub cell: &'a {inner},")
        lines.append("}")
        lines.append("")


def _render_cell_statics(ctx: _DefinitionContext, rc: ResolvedCell,
                         lines: List[str]) -> None:
    instance = naming.static_instance_name(rc.cell.name)
    lines.append(f"pub static {instance}: {ctx.static_type} = {ctx.record} {{")
    for port, field in zip(ctx.ct.call_ports, ctx.call_fields):
        rb = rc.bindings[port.port_name]
        target = naming.static_entry_name(rb.target_entry.port_name,
                                          rb.target_cell.cell.name)
        lines.append(f"{INDENT}{field}: &{target},")
    for field, text in zip(ctx.attr_fields, rc.attr_texts):
        lines.append(f"{INDENT}{field}: {text},")
    if ctx.var_record:
        var_static = naming.static_var_name(rc.cell.name)
        lines.append(f"{INDENT}variable: &{var_static},")
    lines.append("};")
    lines.append("")

    if ctx.var_record:
        lines.append(f"pub static {var_static}: Mutex<{ctx.var_record}> = "
                     f"Mutex::new({ctx.var_record} {{")
        lines.extend(ctx.var_inits)
        lines.append("});")
        lines.append("")

    for port, entry_type in zip(ctx.ct.entry_ports, ctx.entry_types):
        entry_static = naming.static_entry_name(port.port_name, rc.cell.name)
        lines.append(f"pub static {entry_static}: {entry_type} = {entry_type} {{")
        lines.append(f"{INDENT}cell: &{instance},")
        lines.append("};")
        lines.append("")


def _render_accessor(ctx: _DefinitionContext, lines: List[str]) -> None:
    generics = []
    if ctx.has_lifetime:
        generics.append("'a")
    for tp, port in zip(ctx.type_params, ctx.ct.call_ports):
        generics.append(f"{tp}: {naming.contract_name(port.signature_name)}")
    head = "impl"
    if generics:
        head += "<" + ", ".join(generics) + ">"
    head += f" {ctx.record}"
    plain = ctx.generic_params()
    if plain:
        head += "<" + ", ".join(plain) + ">"
    lines.append(head + " {")
    lines.append(f"{INDENT}#[inline]")

    tuple_types: List[str] = []
    tuple_exprs: List[str] = []
    for tp, field in zip(ctx.type_params, ctx.call_fields):
        tuple_types.append(f"&{tp}")
        tuple_exprs.append(f"&self.{field}")
    for attr, field in zip(ctx.visible_attrs, ctx.attr_fields):
        tuple_types.append(f"&{naming.map_base_type(attr.c_type)}")
        tuple_exprs.append(f"&self.{field}")
    if ctx.var_record:
        lt = "<'a>" if ctx.var_has_lifetime else ""
        tuple_types.append(f"&Mutex<{ctx.var_record}{lt}>")
        tuple_exprs.append("self.variable")

    method_lt = "<'a>" if (ctx.var_record and ctx.var_has_lifetime) else ""
    ret = "(" + ", ".join(tuple_types) + ")"
    lines.append(f"{INDENT}pub fn get_cell_ref{method_lt}(&self) -> {ret} {{")
    lines.append(f"{INDENT * 2}(" + ", ".join(tuple_exprs) + ")")
    lines.append(f"{INDENT}}}")
    lines.append("}")


def emit_skeleton(ct: CelltypeDef, model: ResolvedModel) -> GeneratedFile:
    """Render the impl stub file the component developer fills in.

    Never overwritten on regeneration: the bodies belong to the developer.
    """
    lines: List[str] = []
    if ct.vars:
        lines.append("use spin::Mutex;")
    own = [naming.module_name(ct.name)]
    call_contracts = sorted({naming.module_name(p.signature_name) for p in ct.call_ports})
    entry_contracts = sorted({naming.module_name(p.signature_name) for p in ct.entry_ports})
    imports = [naming.rust_name(m) for m in dict.fromkeys(own + call_contracts + entry_contracts)]
    lines.append("use crate::{" + ", ".join(m + "::*" for m in imports) + "};")
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
