"""Convert single-line integer #define macros into a Rust constants file.

A deliberately small stand-in for a full binding generator: only bare
integer object-like macros are translated; everything else is skipped
(with a warning for skipped #defines). It also holds the Rust keyword rule, which the
CDL naming rules import from here, as `bindgen-lite` loads no CDL stage.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from .diagnostics import Diagnostic, SourceLoc, warning

_DEFINE_LINE = re.compile(
    r"^\s*#\s*define\s+([A-Za-z_][A-Za-z0-9_]*)\s+"
    r"(-?)(0[xX][0-9a-fA-F]+|0[0-7]*|[1-9][0-9]*)\s*$")
_ANY_DEFINE = re.compile(r"^\s*#\s*define\b")

RUST_KEYWORDS = frozenset("""as async await break const continue crate dyn else enum extern
    false fn for if impl in let loop match mod move mut pub ref return self Self static struct
    super trait true type unsafe use where while abstract become box do final macro override
    priv try typeof unsized virtual yield""".split())
NOT_RAW = frozenset({"self", "Self", "super", "crate", "_"})  # no Rust identifier spells these


def rust_name(name: str) -> str:
    """match -> r#match: a Rust 2021 strict or reserved keyword is written raw."""
    return "r#" + name if name in RUST_KEYWORDS else name


def convert_defines(header_text: str, source_name: str = "<header>"
                    ) -> Tuple[str, List[Diagnostic]]:
    """One `pub const NAME: i32 = VALUE;` per bare-integer #define, in input order.

    Identifiers and decimal and hex spellings are kept; a C octal literal
    (`010`) is respelled `0o10` and a `0X` prefix `0x`, so the value stays
    the same in Rust. A name that is a Rust keyword is written raw (`r#type`).
    #defines that are not bare integers (function-like macros, parenthesized
    expressions, `08`), whose value does not fit in i32, or whose name no Rust
    identifier spells (`self`, `_`: see `NOT_RAW`) are skipped with a warning, as is
    each later bare-integer #define of a name that is emitted already: the first is
    kept. `#if` and `#undef` are not evaluated.
    """
    out: List[str] = []
    diags: List[Diagnostic] = []
    first: Dict[str, int] = {}  # name -> line of the #define it is emitted from
    # lines end at '\r\n', '\r' or '\n' only, as C and `cli._read` count them
    lines = header_text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        m = _DEFINE_LINE.match(line)
        if m:
            name, sign, digits = m.groups()
            value = sign + ("0o" + digits[1:] if digits[:1] == "0" and digits[1:].isdigit()
                            else digits.replace("X", "x"))  # C's 010 is 8; Rust has no 0X
            if name in first:
                diags.append(warning("duplicate-define", f"skipped #define {name}: already "
                                     f"defined at line {first[name]}",
                                     SourceLoc(source_name, lineno, 1)))
            elif name in NOT_RAW:
                diags.append(warning("keyword-define", f"skipped #define {name}: '{name}' "
                                     f"cannot name a Rust constant, even as 'r#{name}'",
                                     SourceLoc(source_name, lineno, 1)))
            # no i32 has over 10 decimal digits, and `int` refuses over 4,300
            elif (len(digits) <= 10 or digits[0] == "0") and -2**31 <= int(value, 0) < 2**31:
                first[name] = lineno
                out.append(f"pub const {rust_name(name)}: i32 = {value};")
            else:
                diags.append(warning("constant-out-of-range", f"skipped #define {name}: "
                                     f"{sign}{digits} does not fit in i32",
                                     SourceLoc(source_name, lineno, 1)))
        elif _ANY_DEFINE.match(line):
            diags.append(warning(
                "non-literal-define",
                f"skipped #define without a bare integer value: {line.strip()!r}",
                SourceLoc(source_name, lineno, 1)))
    return ("\n".join(out) + "\n" if out else ""), diags
