"""Abstract syntax for the supported CDL subset and the resolved component graph.

Value types with no I/O, immutable by convention (a test checks it); slotted, not frozen,
as freezing made each node 3-4x dearer to build. Locations and a unit's source name serve
diagnostics only: equality and hash leave them out, so a re-parsed rendering compares equal.
Each node is a `Record` that writes its own `__init__`, one statement per field where many
are built: as fast to build as a dataclass, with no `dataclasses` to load.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .diagnostics import (  # noqa: F401  (re-exported for `from tecsrust.model import`)
    Diagnostic, Record, Severity, SourceLoc, Value, error, has_errors, warning,
)


KNOWN_PLUGINS = ("RustGenPlugin", "ItronrsGenPlugin")


class ParamSpecifier(Enum):
    IN = "in"
    OUT = "out"


class InitKind(Enum):
    C_EXP = "C_EXP"
    LITERAL = "literal"


_NOWHERE = SourceLoc()  # where a node built without a location is


class _Node(Value):
    __slots__ = ()
    _uncompared = frozenset(("at", "lines", "location", "source_name"))  # where a node is


class Initializer(_Node):
    __slots__ = ("kind", "text")

    def __init__(self, kind: InitKind, text: str):
        self.kind = kind
        self.text = text


class _LazyLocation(_Node):  # `at` is a `SourceLoc`, or an offset into `lines` located when read
    __slots__ = ()
    location = property(lambda n: n.at if n.lines is None else SourceLoc.at(n.lines, n.at))


class ParamDecl(_LazyLocation):
    __slots__ = ("specifier", "c_type", "pointer_depth", "name", "at", "lines")

    def __init__(self, specifier: ParamSpecifier, c_type: str, pointer_depth: int, name: str,
                 at: SourceLoc | int = _NOWHERE, lines: object = None):
        self.specifier = specifier
        self.c_type = c_type
        self.pointer_depth = pointer_depth
        self.name = name
        self.at = at
        self.lines = lines


class FunctionDecl(_LazyLocation):
    __slots__ = ("name", "return_type", "params", "at", "lines")

    def __init__(self, name: str, return_type: str, params: tuple,
                 at: SourceLoc | int = _NOWHERE, lines: object = None):
        self.name = name
        self.return_type = return_type
        self.params = params
        self.at = at
        self.lines = lines


class SignatureDef(_Node):
    __slots__ = ("name", "functions", "location")

    def __init__(self, name: str, functions: tuple, location: SourceLoc = _NOWHERE):
        self.name, self.functions, self.location = name, functions, location


class PortDirection(Enum):
    CALL = "call"
    ENTRY = "entry"


class PortDecl(_Node):
    __slots__ = ("direction", "signature_name", "port_name", "modifiers", "location")

    def __init__(self, direction: PortDirection, signature_name: str, port_name: str,
                 modifiers: frozenset = frozenset(), location: SourceLoc = _NOWHERE):
        self.direction, self.signature_name, self.port_name = direction, signature_name, port_name
        self.modifiers, self.location = modifiers, location


class AttrDecl(_Node):
    __slots__ = ("name", "c_type", "default", "omit", "location")

    def __init__(self, name: str, c_type: str, default: Optional[Initializer] = None,
                 omit: bool = False, location: SourceLoc = _NOWHERE):
        self.name, self.c_type, self.default = name, c_type, default
        self.omit, self.location = omit, location


class VarDecl(_Node):
    __slots__ = ("name", "type_text", "default", "location")

    def __init__(self, name: str, type_text: str, default: Optional[Initializer] = None,
                 location: SourceLoc = _NOWHERE):
        self.name, self.type_text = name, type_text
        self.default, self.location = default, location


class FactoryScope(Enum):
    PER_CELL = "factory"
    PER_CELLTYPE = "FACTORY"


class FactoryWrite(_Node):
    __slots__ = ("target_file", "template", "location")

    def __init__(self, target_file: str, template: str, location: SourceLoc = _NOWHERE):
        self.target_file, self.template, self.location = target_file, template, location


class FactoryBlock(_Node):
    __slots__ = ("scope", "writes")

    def __init__(self, scope: FactoryScope, writes: tuple):
        self.scope, self.writes = scope, writes


class PluginDirective(_LazyLocation):
    __slots__ = ("plugin_name", "argument", "at", "lines")

    def __init__(self, plugin_name: str, argument: str, at: SourceLoc | int = _NOWHERE,
                 lines: object = None):
        self.plugin_name = plugin_name
        self.argument = argument
        self.at = at
        self.lines = lines


class CelltypeDef(_Node):
    __slots__ = ("name", "call_ports", "entry_ports", "attrs", "vars", "factory_blocks",
                 "generate_directive", "location")

    def __init__(self, name: str, call_ports: tuple = (), entry_ports: tuple = (),
                 attrs: tuple = (), vars: tuple = (), factory_blocks: tuple = (),
                 generate_directive: Optional[PluginDirective] = None,
                 location: SourceLoc = _NOWHERE):
        self.name, self.call_ports, self.entry_ports = name, call_ports, entry_ports
        self.attrs, self.vars, self.factory_blocks = attrs, vars, factory_blocks
        self.generate_directive, self.location = generate_directive, location

    @property
    def ports(self):
        return self.call_ports + self.entry_ports


class Binding(_LazyLocation):
    __slots__ = ("call_port_name", "target_cell_name", "target_entry_port_name", "at", "lines")

    def __init__(self, call_port_name: str, target_cell_name: str, target_entry_port_name: str,
                 at: SourceLoc | int = _NOWHERE, lines: object = None):
        self.call_port_name = call_port_name
        self.target_cell_name = target_cell_name
        self.target_entry_port_name = target_entry_port_name
        self.at = at
        self.lines = lines


class AttrInit(_LazyLocation):
    __slots__ = ("attr_name", "value", "at", "lines")

    def __init__(self, attr_name: str, value: Initializer, at: SourceLoc | int = _NOWHERE,
                 lines: object = None):
        self.attr_name = attr_name
        self.value = value
        self.at = at
        self.lines = lines


class CellDef(_LazyLocation):
    __slots__ = ("name", "celltype_name", "bindings", "attr_inits", "generate_directive", "at",
                 "lines")

    def __init__(self, name: str, celltype_name: str, bindings: tuple = (),
                 attr_inits: tuple = (), generate_directive: Optional[PluginDirective] = None,
                 at: SourceLoc | int = _NOWHERE, lines: object = None):
        self.name = name
        self.celltype_name = celltype_name
        self.bindings = bindings
        self.attr_inits = attr_inits
        self.generate_directive = generate_directive
        self.at = at
        self.lines = lines

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


class CdlUnit(_Node):
    __slots__ = ("source_name", "signatures", "celltypes", "cells")

    def __init__(self, source_name: str = "<memory>", signatures: tuple = (),
                 celltypes: tuple = (), cells: tuple = ()):
        self.source_name, self.signatures = source_name, signatures
        self.celltypes, self.cells = celltypes, cells


def _dupes(names: list) -> list:
    """Each name that repeats an earlier one, in order; a list with no repeat is not walked."""
    if len(set(names)) == len(names):
        return []
    seen = set()
    return [n for n in names if n in seen or seen.add(n)]


def _balanced_holes(text: str) -> bool:
    return "$" not in text or text.count("$") % 2 == 0


def _check_literal(init, node, where: str, diags) -> None:
    """Integer literals the tokenizer takes but Rust reads otherwise: '0x' has no
    digits, Rust has no '0X' prefix, and '010' is octal (8) in C but decimal (10) in Rust.
    `where` names `node`, the attr, var or cell initializer, as `where.format(node)`."""
    digits = init.text.lstrip("-") if init is not None and init.kind is InitKind.LITERAL else ""
    problem = ("has no digits" if digits.lower() == "0x" else "has a '0X' prefix, which Rust "
               "does not accept" if digits[:2] == "0X" else "has a leading zero (octal in C, "
               "decimal in Rust)" if digits[:1] == "0" and digits[1:].isdigit() else "")
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
            _check_literal(a.default, a, "default of attr '{0.name}'", diags)
        for v in ct.vars:
            _check_literal(v.default, v, "default of var '{0.name}'", diags)
        for block in ct.factory_blocks:
            for w in block.writes:
                if not w.target_file:
                    diags.append(error(
                        "empty-write-target",
                        "factory write has an empty target file", w.location))
                if not (_balanced_holes(w.target_file) and _balanced_holes(w.template)):
                    diags.append(error(
                        "unbalanced-macro",
                        f"unbalanced '$' holes in write to '{w.target_file}'",
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
            if init.value.kind is literal:  # the guard `_check_literal` has, without a call
                _check_literal(init.value, init, "initializer of '{0.attr_name}'", diags)
        if cell.generate_directive is not None:  # as above
            _check_directive(cell.generate_directive, diags)

    return diags


def _check_directive(directive, diags):
    if directive is not None and directive.plugin_name not in KNOWN_PLUGINS:
        diags.append(error(
            "unknown-plugin",
            f"unknown plugin '{directive.plugin_name}'",
            directive.location))
