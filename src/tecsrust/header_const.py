"""Convert single-line integer #define macros into a Rust constants file.

A deliberately small stand-in for a full binding generator: only bare
integer object-like macros are translated; everything else is skipped
(with a warning for skipped #defines).
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .model import Diagnostic, SourceLoc, warning

_DEFINE_LINE = re.compile(
    r"^\s*#\s*define\s+([A-Za-z_][A-Za-z0-9_]*)\s+"
    r"(-?(?:0[xX][0-9a-fA-F]+|[0-9]+))\s*$")
_ANY_DEFINE = re.compile(r"^\s*#\s*define\b")


def convert_defines(header_text: str, source_name: str = "<header>"
                    ) -> Tuple[str, List[Diagnostic]]:
    """One `pub const NAME: i32 = VALUE;` per bare-integer #define, in input order.

    Identifiers and integer spellings (including hex) are preserved
    verbatim. #defines that are not bare integers (function-like macros,
    parenthesized expressions) or whose value does not fit in i32 are
    skipped with a warning.
    """
    out: List[str] = []
    diags: List[Diagnostic] = []
    for lineno, line in enumerate(header_text.splitlines(), start=1):
        m = _DEFINE_LINE.match(line)
        if m:
            name, value = m.groups()
            number = int(value, 16) if "x" in value.lower() else int(value)
            if -2**31 <= number < 2**31:
                out.append(f"pub const {name}: i32 = {value};")
            else:
                diags.append(warning(
                    "constant-out-of-range",
                    f"skipped #define {name}: {value} does not fit in i32",
                    SourceLoc(source_name, lineno, 1)))
        elif _ANY_DEFINE.match(line):
            diags.append(warning(
                "non-literal-define",
                f"skipped #define without a bare integer value: {line.strip()!r}",
                SourceLoc(source_name, lineno, 1)))
    return ("\n".join(out) + "\n" if out else ""), diags
