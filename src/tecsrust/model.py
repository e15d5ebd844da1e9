"""Abstract syntax for the supported CDL subset and the resolved component graph.

Value types with no I/O, immutable by convention (a test checks it); slotted, not frozen,
as freezing made each node 3-4x dearer to build. A located node keeps its start as an offset
into its source's `LineIndex`, located when read; that and a unit's source name serve
diagnostics only: equality and hash leave them out, so a re-parsed rendering compares equal.
Each node is a `Record` that states its fields once, in `__slots__`; `Record` generates its
`__init__`, one statement per field: as fast to build as a dataclass, with no `dataclasses`.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .diagnostics import SourceLoc, Value, error, printable
from .diagnostics import has_errors  # noqa: F401  (perfbench/trace_run.py reads it here)


KNOWN_PLUGINS = ("RustGenPlugin", "ItronrsGenPlugin")


class ParamSpecifier(Enum):
    IN = "in"
    OUT = "out"


class InitKind(Enum):
    C_EXP = "C_EXP"
    LITERAL = "literal"


_NOWHERE = SourceLoc()  # where a node built without a location is


class Initializer(Value):
    __slots__ = ("kind", "text")


class _LazyLocation(Value):  # `at` is an offset into `lines`, located when read; or a `SourceLoc`
    __slots__ = ()
    _uncompared = frozenset(("at", "lines"))  # where a node is
    _defaults = {"at": _NOWHERE, "lines": None}
    location = property(lambda n: n.at if n.lines is None else SourceLoc.at(n.lines, n.at))


class ParamDecl(_LazyLocation):
    __slots__ = ("specifier", "c_type", "pointer_depth", "name", "at", "lines")


class FunctionDecl(_LazyLocation):
    __slots__ = ("name", "return_type", "params", "at", "lines")


class SignatureDef(_LazyLocation):
    __slots__ = ("name", "functions", "at", "lines")


class PortDirection(Enum):
    CALL = "call"
    ENTRY = "entry"


class PortDecl(_LazyLocation):
    __slots__ = ("direction", "signature_name", "port_name", "modifiers", "at", "lines")
    _defaults = {"modifiers": frozenset()}


class AttrDecl(_LazyLocation):
    __slots__ = ("name", "c_type", "default", "omit", "at", "lines")
    _defaults = {"default": None, "omit": False}


class VarDecl(_LazyLocation):
    __slots__ = ("name", "type_text", "default", "at", "lines")
    _defaults = {"default": None}


class FactoryScope(Enum):
    PER_CELL = "factory"
    PER_CELLTYPE = "FACTORY"


class FactoryWrite(_LazyLocation):
    __slots__ = ("target_file", "template", "at", "lines")


class FactoryBlock(Value):
    __slots__ = ("scope", "writes")


class PluginDirective(_LazyLocation):
    __slots__ = ("plugin_name", "argument", "at", "lines")


class CelltypeDef(_LazyLocation):
    __slots__ = ("name", "call_ports", "entry_ports", "attrs", "vars", "factory_blocks",
                 "generate_directive", "at", "lines")
    _defaults = {"call_ports": (), "entry_ports": (), "attrs": (), "vars": (),
                 "factory_blocks": (), "generate_directive": None}

    @property
    def ports(self):
        return self.call_ports + self.entry_ports


class Binding(_LazyLocation):
    __slots__ = ("call_port_name", "target_cell_name", "target_entry_port_name", "at", "lines")


class AttrInit(_LazyLocation):
    __slots__ = ("attr_name", "value", "at", "lines")


class CellDef(_LazyLocation):
    __slots__ = ("name", "celltype_name", "bindings", "attr_inits", "generate_directive", "at",
                 "lines")
    _defaults = {"bindings": (), "attr_inits": (), "generate_directive": None}

    def binding_for(self, call_port_name: str) -> Optional[Binding]:
        for b in self.bindings:
            if b.call_port_name == call_port_name:
                return b
        return None

    def init_for(self, attr_name: str) -> Optional[Initializer]:
        for init in self.attr_inits:
            if init.attr_name == attr_name:
                return init.value
        return None


class CdlUnit(Value):
    __slots__ = ("source_name", "signatures", "celltypes", "cells")
    _uncompared = frozenset(("source_name",))
    _defaults = {"source_name": "<memory>", "signatures": (), "celltypes": (), "cells": ()}


# Each C scalar type: its Rust type, then the integers a field of it holds. rustc rejects an
# integer literal outside them (`overflowing_literals`, denied by default), a '-' for an
# unsigned type (E0600), and any integer for a float or `()` (E0308, so None). Other type
# names pass through `naming.map_base_type` verbatim, for an external binding layer to define.
C_SCALARS = {
    "int8_t": ("i8", range(-1 << 7, 1 << 7)),
    "int16_t": ("i16", range(-1 << 15, 1 << 15)),
    "int32_t": ("i32", range(-1 << 31, 1 << 31)),
    "int64_t": ("i64", range(-1 << 63, 1 << 63)),
    "uint8_t": ("u8", range(1 << 8)),
    "uint16_t": ("u16", range(1 << 16)),
    "uint32_t": ("u32", range(1 << 32)),
    "uint64_t": ("u64", range(1 << 64)),
    "float": ("f32", None),
    "double": ("f64", None),
    "void": ("()", None),
}


def _dupes(names: list) -> list:
    """Each name that repeats an earlier one, in order; a list with no repeat is not walked."""
    if len(set(names)) == len(names):
        return []
    seen = set()
    return [n for n in names if n in seen or seen.add(n)]


def _balanced_holes(text: str) -> bool:
    return "$" not in text or text.count("$") % 2 == 0


def check_literal(init, node, where: str, diags, c_type: Optional[str] = None) -> None:
    """Report `init` if it is an integer literal that Rust reads otherwise: '0x' has no digits,
    Rust has no '0X' prefix, '010' is 8 in C but 10 in Rust, and Rust reads only ASCII digits
    (not '²' or '٣', which `str.isdigit` takes); or, given its field's C type, one that Rust
    rejects for that type (see `C_SCALARS`). `where.format(node)` names the attr, var or cell."""
    digits = init.text.lstrip("-") if init is not None and init.kind is InitKind.LITERAL else ""
    problem = ("has a non-ASCII digit, which Rust does not accept" if not digits.isascii()
               and digits[:1].isdigit() else  # an identifier starts with no digit
               "has no digits" if digits.lower() == "0x" else "has a '0X' prefix, which Rust "
               "does not accept" if digits[:2] == "0X" else "has a leading zero (octal in C, "
               "decimal in Rust)" if digits[:1] == "0" and digits[1:].isdigit() else "")
    if not problem and c_type in C_SCALARS and digits[:1].isdigit():
        rust, holds = C_SCALARS[c_type]  # `int` reads the form
        too_long = len(digits) > 20 and digits[:2] != "0x"  # past 64 bits, or what `int` reads
        problem = ("is an integer, which Rust does not accept for its type" if holds is None
                   else "has a '-', which Rust does not accept for its unsigned type"
                   if init.text[0] == "-" and holds.start == 0
                   else "is out of range for its type" if too_long
                   or int(init.text, 0) not in holds else "")
        problem = problem and f"{problem} '{rust}'"
    if problem:
        diags.append(error("bad-integer", f"integer literal '{init.text}' in "
                           f"{where.format(node)} {problem}", node.location))


def validate_unit(unit: CdlUnit) -> list:
    """Check structural rules on a parsed unit.

    Returns all violations found; an empty list means the unit is
    model-valid and safe to hand to the linker.
    """
    diags = []
    out, literal = ParamSpecifier.OUT, InitKind.LITERAL  # an enum member read is slow in 3.11

    for sig in unit.signatures:
        for fn in _dupes([f.name for f in sig.functions]):
            diags.append(error(
                "duplicate-function",
                f"function '{fn}' defined more than once in signature '{sig.name}'",
                sig.location))
        for f in sig.functions:
            if len({p.name for p in f.params}) < len(f.params):  # skips the list and call
                for pn in _dupes([p.name for p in f.params]):
                    diags.append(error("duplicate-param", f"parameter '{pn}' repeated in "
                                       f"function '{f.name}'", f.location))
            for p in f.params:
                if p.pointer_depth == 1:  # the common case, and a valid one
                    continue
                if p.pointer_depth < 1 and p.specifier is out:
                    diags.append(error(
                        "out-requires-pointer",
                        f"[out] parameter '{p.name}' of '{f.name}' must be a pointer",
                        p.location))
                if p.pointer_depth > 1:
                    diags.append(error(
                        "pointer-depth",
                        f"parameter '{p.name}' uses more than one '*'",
                        p.location))

    for ct in unit.celltypes:
        for code, noun, names in (("duplicate-port", "port", [p.port_name for p in ct.ports]),
                                  ("duplicate-attr", "attr", [a.name for a in ct.attrs]),
                                  ("duplicate-var", "var", [v.name for v in ct.vars])):
            diags += [error(code, f"{noun} '{n}' declared more than once in celltype "
                            f"'{ct.name}'", ct.location) for n in _dupes(names)]
        for a in ct.attrs:
            if a.default is not None and not _balanced_holes(a.default.text):
                diags.append(error(
                    "unbalanced-macro",
                    f"unbalanced '$' holes in default of attr '{a.name}'",
                    a.location))
            check_literal(a.default, a, "default of attr '{0.name}'", diags)
        for v in ct.vars:
            check_literal(v.default, v, "default of var '{0.name}'", diags)
        for block in ct.factory_blocks:
            for w in block.writes:
                if not w.target_file:
                    diags.append(error(
                        "empty-write-target",
                        "factory write has an empty target file", w.location))
                if not (_balanced_holes(w.target_file) and _balanced_holes(w.template)):
                    diags.append(error(
                        "unbalanced-macro",
                        f"unbalanced '$' holes in write to '{printable(w.target_file)}'",
                        w.location))
        _check_directive(ct.generate_directive, diags)

    for cell in unit.cells:
        if len(cell.bindings) > 1:  # most cells have one: skip the list and call
            for bn in _dupes([b.call_port_name for b in cell.bindings]):
                diags.append(error("duplicate-binding", f"call port '{bn}' bound more than "
                                   f"once in cell '{cell.name}'", cell.location))
        if len(cell.attr_inits) > 1:
            for an in _dupes([i.attr_name for i in cell.attr_inits]):
                diags.append(error("duplicate-attr-init", f"attr '{an}' initialized more "
                                   f"than once in cell '{cell.name}'", cell.location))
        for init in cell.attr_inits:
            if not _balanced_holes(init.value.text):
                diags.append(error(
                    "unbalanced-macro",
                    f"unbalanced '$' holes in initializer of '{init.attr_name}'",
                    init.location))
            if init.value.kind is literal:  # the guard `check_literal` has, without a call
                check_literal(init.value, init, "initializer of '{0.attr_name}'", diags)
        if cell.generate_directive is not None:  # as above
            _check_directive(cell.generate_directive, diags)

    return diags


def _check_directive(directive, diags):
    if directive is not None and directive.plugin_name not in KNOWN_PLUGINS:
        diags.append(error(
            "unknown-plugin",
            f"unknown plugin '{directive.plugin_name}'",
            directive.location))
