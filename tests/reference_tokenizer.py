"""The char-at-a-time tokenizer tecsrust shipped first, kept as the reference.

`test_tokenizer_differential.py` requires the production tokenizer to
yield the same tokens, locations and diagnostics as this one on every
input. The function body is the original. `KEYWORDS` and `error` are copies
of `frontend.KEYWORDS` and `diagnostics.error` as they were when it was
frozen: a reference that shares a helper with the code under test cannot
catch a fault in that helper, so this one owns them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from tecsrust.diagnostics import Diagnostic, Severity, SourceLoc

KEYWORDS = {
    "signature", "celltype", "cell", "call", "entry", "attr", "var",
    "factory", "FACTORY", "generate", "C_EXP", "write",
}
PUNCT = set("{}()[];,=*.")


def error(code: str, message: str, location: SourceLoc) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, location)


@dataclass(frozen=True)
class Token:
    kind: str  # keyword | identifier | string | integer | punct
    text: str
    location: SourceLoc


def tokenize(text: str, source_name: str = "<memory>") -> Tuple[List[Token], List[Diagnostic]]:
    tokens: List[Token] = []
    diags: List[Diagnostic] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def loc():
        return SourceLoc(source_name, line, col)

    def advance(k=1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            advance()
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                advance()
            continue
        if text.startswith("/*", i):
            start = loc()
            advance(2)
            while i < n and not text.startswith("*/", i):
                advance()
            if i >= n:
                diags.append(error("unterminated-comment", "unterminated '/*' comment", start))
                break
            advance(2)
            continue
        if c == '"':
            start = loc()
            advance()
            buf = []
            closed = False
            while i < n:
                ch = text[i]
                if ch == "\\" and i + 1 < n:
                    esc = text[i + 1]
                    buf.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    advance(2)
                    continue
                if ch == '"':
                    advance()
                    closed = True
                    break
                if ch == "\n":
                    break
                buf.append(ch)
                advance()
            if not closed:
                diags.append(error("unterminated-string", "unterminated string literal", start))
                continue
            tokens.append(Token("string", "".join(buf), start))
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            start = loc()
            j = i + (1 if c == "-" else 0)
            if text.startswith("0x", j) or text.startswith("0X", j):
                j += 2
                while j < n and text[j] in "0123456789abcdefABCDEF":
                    j += 1
            else:
                while j < n and text[j].isdigit():
                    j += 1
            lit = text[i:j]
            advance(j - i)
            tokens.append(Token("integer", lit, start))
            continue
        if c.isalpha() or c == "_":
            start = loc()
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            advance(j - i)
            kind = "keyword" if word in KEYWORDS else "identifier"
            tokens.append(Token(kind, word, start))
            continue
        if c in PUNCT:
            tokens.append(Token("punct", c, loc()))
            advance()
            continue
        diags.append(error("bad-character", f"unexpected character {c!r}", loc()))
        advance()

    return tokens, diags
