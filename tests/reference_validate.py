"""The structural checks tecsrust shipped before `validate_unit` ran its cheap checks
first, kept as the reference.

`test_validate_differential.py` requires `tecsrust.model.validate_unit` to give the
same diagnostics (code, message, location and order) as `validate_unit` below.
`_dupes`, `_balanced_holes`, `_check_literal`, `_check_directive` and `validate_unit`
are the original code, but that `validate_unit` reads a celltype's ports as its call
ports then its entry ports, not through `CelltypeDef.ports`. `KNOWN_PLUGINS` and `error`
are copies of the `model` and `diagnostics` names as they were when it was frozen: a
reference that shares a helper with the code under test cannot catch a fault in it.
"""

from __future__ import annotations

from tecsrust.diagnostics import Diagnostic, Severity, SourceLoc
from tecsrust.model import CdlUnit, InitKind, ParamSpecifier

KNOWN_PLUGINS = ("RustGenPlugin", "ItronrsGenPlugin")


def error(code: str, message: str, location: SourceLoc) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, location)


def _dupes(names):
    seen = set()
    out = []
    for n in names:
        if n in seen:
            out.append(n)
        seen.add(n)
    return out


def _balanced_holes(text: str) -> bool:
    return text.count("$") % 2 == 0


def _check_literal(init, node, where: str, diags) -> None:
    """Integer literals the tokenizer takes but Rust reads otherwise: '0x' has no
    digits, Rust has no '0X' prefix, '010' is octal (8) in C but decimal (10) in Rust, and
    Rust reads no digit but an ASCII one (not '²' or '٣', which `str.isdigit` takes).
    `where` names `node`, the attr, var or cell initializer, as `where.format(node)`."""
    digits = init.text.lstrip("-") if init is not None and init.kind is InitKind.LITERAL else ""
    problem = ("has a non-ASCII digit, which Rust does not accept" if not digits.isascii()
               and digits[:1].isdigit() else  # an identifier starts with no digit
               "has no digits" if digits.lower() == "0x" else "has a '0X' prefix, which Rust "
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

    for sig in unit.signatures:
        for fn in _dupes(f.name for f in sig.functions):
            diags.append(error(
                "duplicate-function",
                f"function '{fn}' defined more than once in signature '{sig.name}'",
                sig.location))
        for f in sig.functions:
            for pn in _dupes(p.name for p in f.params):
                diags.append(error(
                    "duplicate-param",
                    f"parameter '{pn}' repeated in function '{f.name}'",
                    f.location))
            for p in f.params:
                if p.specifier is ParamSpecifier.OUT and p.pointer_depth < 1:
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
        ports = ct.call_ports + ct.entry_ports
        for code, noun, names in (("duplicate-port", "port", [p.port_name for p in ports]),
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
        for bn in _dupes(b.call_port_name for b in cell.bindings):
            diags.append(error(
                "duplicate-binding",
                f"call port '{bn}' bound more than once in cell '{cell.name}'",
                cell.location))
        for an in _dupes(i.attr_name for i in cell.attr_inits):
            diags.append(error(
                "duplicate-attr-init",
                f"attr '{an}' initialized more than once in cell '{cell.name}'",
                cell.location))
        for init in cell.attr_inits:
            if not _balanced_holes(init.value.text):
                diags.append(error(
                    "unbalanced-macro",
                    f"unbalanced '$' holes in initializer of '{init.attr_name}'",
                    init.location))
            _check_literal(init.value, init, "initializer of '{0.attr_name}'", diags)
        _check_directive(cell.generate_directive, diags)

    return diags


def _check_directive(directive, diags):
    if directive is not None and directive.plugin_name not in KNOWN_PLUGINS:
        diags.append(error(
            "unknown-plugin",
            f"unknown plugin '{directive.plugin_name}'",
            directive.location))
