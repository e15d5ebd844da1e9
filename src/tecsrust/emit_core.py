"""Renderers for the generated Rust sources.

One contract file per signature, one definition/instantiation file per
celltype, one impl skeleton per celltype with entry ports. All emitters
are pure model -> text functions; output is deterministic, LF-terminated,
and ends with exactly one trailing newline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from . import naming
from .emit_rtos import (
    MacroError, build_env, emit_preamble, substitute_macros, uses_kernel_wrappers,
)
from .linker import ResolvedCell, ResolvedModel
from .model import CelltypeDef, Diagnostic, InitKind, SignatureDef, SourceLoc, error

INDENT = "  "


class WritePolicy(Enum):
    OVERWRITE = "overwrite"
    SKIP_IF_EXISTS = "skip-if-exists"


@dataclass(frozen=True)
class GeneratedFile:
    path: str
    content: str
    policy: WritePolicy


class EmissionError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(str(diag))
        self.diagnostic = diag


def _finish(lines: List[str]) -> str:
    return "\n".join(lines) + "\n"


def _method_sig(fn, declaration: bool) -> str:
    params = ["&self"]
    for p in fn.params:
        params.append(f"{p.name}: {naming.map_param_type(p.c_type, p.pointer_depth, p.specifier)}")
    ret = ""
    if fn.return_type != "void":
        ret = f" -> {naming.map_base_type(fn.return_type)}"
    return f"fn {fn.name}({', '.join(params)}){ret}"


def emit_contract(sig: SignatureDef) -> GeneratedFile:
    """Render the public interface contract (trait) for a signature."""
    lines = [f"pub trait {naming.contract_name(sig.name)} {{"]
    for fn in sig.functions:
        lines.append(f"{INDENT}{_method_sig(fn, True)};")
    lines.append("}")
    return GeneratedFile(naming.file_name("contract", sig.name), _finish(lines),
                         WritePolicy.OVERWRITE)


class _DefinitionContext:
    """Everything emit_definition needs that goes beyond the celltype itself."""

    def __init__(self, ct: CelltypeDef, cells: List[ResolvedCell]):
        self.ct = ct
        self.cells = cells
        self.record = naming.record_name(ct.name)
        self.visible_attrs = [a for a in ct.attrs if not a.omit]
        self.var_types = {v.name: naming.demangle_var_type(v.type_text) for v in ct.vars}
        self.var_record = self.record + "Var" if ct.vars else None
        self.var_has_lifetime = any("'a" in t for t in self.var_types.values())
        self.has_lifetime = bool(ct.call_ports or ct.vars)
        if len(ct.call_ports) == 1:
            self.type_params = ["T"]
        else:
            self.type_params = [f"T{i + 1}" for i in range(len(ct.call_ports))]
        # concrete entry type per call port, from the (homogeneous) bindings
        self.concrete = {}
        for port in ct.call_ports:
            rb = None
            for rc in cells:
                rb = rc.bindings.get(port.port_name)
                if rb is not None:
                    break
            if rb is None:
                raise EmissionError(error(
                    "no-binding-context",
                    f"celltype '{ct.name}' has call port '{port.port_name}' but no "
                    f"bound cell to fix its concrete entry type", port.location))
            self.concrete[port.port_name] = (
                naming.entry_impl_name(rb.target_entry.port_name,
                                       rb.target_cell.celltype.name),
                rb.target_cell.celltype.name,
            )

    def generic_params(self) -> List[str]:
        return (["'a"] if self.has_lifetime else []) + self.type_params


def _definition_imports(ctx: _DefinitionContext) -> List[str]:
    call_contracts = sorted({naming.module_name(p.signature_name)
                             for p in ctx.ct.call_ports})
    bound_cts = sorted({naming.module_name(ct_name)
                        for _, ct_name in ctx.concrete.values()})
    entry_contracts = sorted({naming.module_name(p.signature_name)
                              for p in ctx.ct.entry_ports})
    return list(dict.fromkeys(call_contracts + bound_cts + entry_contracts))


def emit_definition(ct: CelltypeDef, cells: List[ResolvedCell],
                    model: ResolvedModel) -> GeneratedFile:
    """Render the definition/instantiation file for one celltype.

    Layout: imports, main record (ROM side: call-port references, attrs,
    and a reference to the lock-wrapped variable record), variable record
    (RAM side), one entry-port record per entry port, per-cell statics,
    and the inline get_cell_ref accessor returning the access tuple.
    """
    try:
        ctx = _DefinitionContext(ct, cells)
    except naming.NamingError as exc:
        raise EmissionError(error(exc.code, str(exc), ct.location))
    lines: List[str] = []

    if uses_kernel_wrappers(model, ct):
        lines.extend(emit_preamble().splitlines())
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
    for tp, port in zip(ctx.type_params, ctx.ct.call_ports):
        lines.append(f"{INDENT}pub {naming.field_name(port.port_name)}: &'a {tp},")
    for attr in ctx.visible_attrs:
        lines.append(f"{INDENT}pub {attr.name}: {naming.map_base_type(attr.c_type)},")
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
        lines.append(f"{INDENT}pub {v.name}: {ctx.var_types[v.name]},")
    lines.append("}")
    lines.append("")


def _entry_record_inner_type(ctx: _DefinitionContext) -> str:
    args = (["'a"] if ctx.has_lifetime else [])
    for port in ctx.ct.call_ports:
        args.append(ctx.concrete[port.port_name][0] + "<'a>")
    inner = ctx.record
    if args:
        inner += "<" + ", ".join(args) + ">"
    return inner


def _render_entry_structs(ctx: _DefinitionContext, lines: List[str]) -> None:
    inner = _entry_record_inner_type(ctx)
    for port in ctx.ct.entry_ports:
        name = naming.entry_impl_name(port.port_name, ctx.ct.name)
        lines.append(f"pub struct {name}<'a>{{")
        lines.append(f"{INDENT}pub cell: &'a {inner},")
        lines.append("}")
        lines.append("")


def _resolved_attr_text(ctx: _DefinitionContext, rc: ResolvedCell, attr) -> str:
    init = rc.cell.init_for(attr.name)
    if init is None:
        init = attr.default
    if init is None:
        raise EmissionError(error(
            "uninitialized-attribute",
            f"attr '{attr.name}' of cell '{rc.cell.name}' has neither a default "
            f"nor a cell initializer", rc.cell.location))
    text = init.text
    if init.kind is InitKind.C_EXP and "$" in text:
        env = build_env(ctx.ct, rc.cell)
        try:
            text = substitute_macros(text, env)
        except MacroError as exc:
            raise EmissionError(error(exc.code, str(exc), rc.cell.location))
    return text


def _render_cell_statics(ctx: _DefinitionContext, rc: ResolvedCell,
                         lines: List[str]) -> None:
    instance = naming.static_instance_name(rc.cell.name)
    static_type = ctx.record
    if ctx.ct.call_ports:
        static_type += "<" + ", ".join(
            ctx.concrete[p.port_name][0] for p in ctx.ct.call_ports) + ">"
    lines.append(f"pub static {instance}: {static_type} = {ctx.record} {{")
    for port in ctx.ct.call_ports:
        rb = rc.bindings[port.port_name]
        target = naming.static_entry_name(rb.target_entry.port_name,
                                          rb.target_cell.cell.name)
        lines.append(f"{INDENT}{naming.field_name(port.port_name)}: &{target},")
    for attr in ctx.visible_attrs:
        lines.append(f"{INDENT}{attr.name}: {_resolved_attr_text(ctx, rc, attr)},")
    if ctx.var_record:
        lines.append(f"{INDENT}variable: &{naming.static_var_name(rc.cell.name)},")
    lines.append("};")
    lines.append("")

    if ctx.var_record:
        var_static = naming.static_var_name(rc.cell.name)
        lines.append(f"pub static {var_static}: Mutex<{ctx.var_record}> = "
                     f"Mutex::new({ctx.var_record} {{")
        for v in ctx.ct.vars:
            if v.default is None:
                raise EmissionError(error(
                    "uninitialized-variable",
                    f"var '{v.name}' of celltype '{ctx.ct.name}' has no initializer",
                    v.location))
            lines.append(f"{INDENT}{v.name}: {v.default.text},")
        lines.append("});")
        lines.append("")

    for port in ctx.ct.entry_ports:
        entry_static = naming.static_entry_name(port.port_name, rc.cell.name)
        entry_type = naming.entry_impl_name(port.port_name, ctx.ct.name)
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
    for tp, port in zip(ctx.type_params, ctx.ct.call_ports):
        tuple_types.append(f"&{tp}")
        tuple_exprs.append(f"&self.{naming.field_name(port.port_name)}")
    for attr in ctx.visible_attrs:
        tuple_types.append(f"&{naming.map_base_type(attr.c_type)}")
        tuple_exprs.append(f"&self.{attr.name}")
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
    imports = list(dict.fromkeys(own + call_contracts + entry_contracts))
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
            lines.append(f"{INDENT}{_method_sig(fn, False)} {{")
            lines.append(f"{INDENT * 2}let cell_ref = self.cell.get_cell_ref();")
            lines.append(f"{INDENT}}}")
        lines.append("}")

    return GeneratedFile(naming.file_name("skeleton", ct.name), _finish(lines),
                         WritePolicy.SKIP_IF_EXISTS)
