"""Convert single-line integer #define macros into a Rust constants file.

A deliberately small stand-in for a full binding generator: only bare
integer object-like macros are translated; everything else is skipped
(with a warning for skipped #defines).
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .diagnostics import Diagnostic, SourceLoc, warning

_DEFINE_LINE = re.compile(
    r"^\s*#\s*define\s+([A-Za-z_][A-Za-z0-9_]*)\s+"
    r"(-?)(0[xX][0-9a-fA-F]+|0[0-7]*|[1-9][0-9]*)\s*$")
_ANY_DEFINE = re.compile(r"^\s*#\s*define\b")


def convert_defines(header_text: str, source_name: str = "<header>"
                    ) -> Tuple[str, List[Diagnostic]]:
    """One `pub const NAME: i32 = VALUE;` per bare-integer #define, in input order.

    Identifiers and decimal and hex spellings are kept; a C octal literal
    (`010`) is respelled `0o10` and a `0X` prefix `0x`, so the value stays
    the same in Rust. #defines that are not bare integers (function-like
    macros, parenthesized expressions, `08`) or whose value does not fit in
    i32 are skipped with a warning.
    """
    out: List[str] = []
    diags: List[Diagnostic] = []
    # lines end at '\r\n', '\r' or '\n' only, as C and `cli._read` count them
    lines = header_text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        m = _DEFINE_LINE.match(line)
        if m:
            name, sign, digits = m.groups()
            value = sign + ("0o" + digits[1:] if digits[:1] == "0" and digits[1:].isdigit()
                            else digits.replace("X", "x"))  # C's 010 is 8; Rust has no 0X
            if -2**31 <= int(value, 0) < 2**31:
                out.append(f"pub const {name}: i32 = {value};")
            else:
                diags.append(warning(
                    "constant-out-of-range",
                    f"skipped #define {name}: {sign}{digits} does not fit in i32",
                    SourceLoc(source_name, lineno, 1)))
        elif _ANY_DEFINE.match(line):
            diags.append(warning(
                "non-literal-define",
                f"skipped #define without a bare integer value: {line.strip()!r}",
                SourceLoc(source_name, lineno, 1)))
    return ("\n".join(out) + "\n" if out else ""), diags
