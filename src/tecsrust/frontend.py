"""Tokenizer, parser, and canonical renderer for the CDL subset.

The grammar covers signature, celltype (ports, attr, var, factory/FACTORY),
and cell descriptions, plus [generate(...)] directives and bracketed
modifiers. Anything outside that subset is a clean, located error. The
parser recovers at the next top-level ';' or '}' so one pass can report
several errors.

`tokenize` scans a text with one compiled regex. A `Token` keeps its kind,
text and start offset plus a reference to the source's `LineIndex`;
`Token.location` builds the `SourceLoc` on demand, on each access, by
bisecting the line starts. Lines end at '\n' only, and columns count
characters from 1.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .model import (
    AttrDecl, AttrInit, Binding, CdlUnit, CellDef, CelltypeDef, Diagnostic,
    FactoryBlock, FactoryScope, FactoryWrite, FunctionDecl, InitKind,
    Initializer, ParamDecl, ParamSpecifier, PluginDirective, PortDecl,
    PortDirection, SignatureDef, SourceLoc, VarDecl, error, has_errors,
)

KEYWORDS = {
    "signature", "celltype", "cell", "call", "entry", "attr", "var",
    "factory", "FACTORY", "generate", "C_EXP", "write",
}


# One alternative per token class; the named group that matched is the
# token kind, and whitespace and comments match unnamed. `other` takes a
# bad character, or the start of a token with non-ASCII letters or digits,
# which `_scan_other` finishes with the str predicates.
_TOKEN = re.compile(r"""
    [ \t\r\n]+
  | //[^\n]*
  | /\*.*?\*/
  | (?P<keyword>(?:%s)(?!\w))
  | (?P<identifier>[A-Za-z_]\w*)
  | (?P<punct>[{}()\[\];,=*.])
  | (?P<integer>-?(?:0[xX][0-9a-fA-F]*|[0-9]+(?![0-9]|[^\x00-\x7f])))
  | "(?P<string>(?:\\.|[^"\\\n])*)"
  | (?P<open_string>"(?:\\.|[^"\\\n])*\\?)
  | (?P<open_comment>/\*)
  | (?P<other>.)
""" % "|".join(sorted(KEYWORDS)), re.DOTALL | re.VERBOSE)
_PLAIN = {"keyword", "identifier", "punct", "integer"}  # token text is the match
_WORD_TAIL = re.compile(r"\w*")  # \w is exactly str.isalnum() or '_'
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_UNESCAPE = {"n": "\n", "t": "\t"}


class LineIndex:
    """Line-start offsets of one source text, shared by all of its tokens."""

    __slots__ = ("source_name", "starts")

    def __init__(self, text: str, source_name: str):
        self.source_name = source_name
        self.starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def locate(self, offset: int) -> SourceLoc:
        line = bisect_right(self.starts, offset)
        return SourceLoc(self.source_name, line, offset - self.starts[line - 1] + 1)


class Token:
    """kind is keyword | identifier | string | integer | punct."""

    __slots__ = ("kind", "text", "offset", "lines")

    def __init__(self, kind: str, text: str, offset: int, lines: LineIndex):
        self.kind = kind
        self.text = text
        self.offset = offset
        self.lines = lines

    @property
    def location(self) -> SourceLoc:
        return self.lines.locate(self.offset)


def tokenize(text: str, source_name: str = "<memory>") -> Tuple[List[Token], List[Diagnostic]]:
    lines = LineIndex(text, source_name)
    tokens: List[Token] = []
    diags: List[Diagnostic] = []
    pos, n = 0, len(text)
    while pos < n:
        for m in _TOKEN.finditer(text, pos):
            kind = m.lastgroup
            if kind in _PLAIN:
                tokens.append(Token(kind, m.group(), m.start(), lines))
                continue
            if kind is None:
                continue
            start = m.start()
            if kind == "string":
                body = m.group(kind)
                if "\\" in body:
                    body = _ESCAPE.sub(lambda e: _UNESCAPE.get(e[1], e[1]), body)
                tokens.append(Token(kind, body, start, lines))
            elif kind == "open_string":
                diags.append(error("unterminated-string", "unterminated string literal",
                                   lines.locate(start)))
            elif kind == "open_comment":
                diags.append(error("unterminated-comment", "unterminated '/*' comment",
                                   lines.locate(start)))
                pos = n
                break
            else:
                end = _scan_other(text, start, lines, tokens, diags)
                if end > start + 1:  # resume the scan after a longer token
                    pos = end
                    break
        else:
            pos = n
    return tokens, diags


def _scan_other(text, i, lines, tokens, diags) -> int:
    """Scan the token at text[i] with the str predicates; return its end."""
    c = text[i]
    if c.isdigit() or (c == "-" and text[i + 1:i + 2].isdigit()):
        # hex needs an ASCII "0x", which `_TOKEN` always takes itself
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        tokens.append(Token("integer", text[i:j], i, lines))
        return j
    if c.isalpha():  # keywords are ASCII, so this is an identifier
        j = _WORD_TAIL.match(text, i + 1).end()
        tokens.append(Token("identifier", text[i:j], i, lines))
        return j
    diags.append(error("bad-character", f"unexpected character {c!r}", lines.locate(i)))
    return i + 1


@dataclass
class ParseResult:
    unit: Optional[CdlUnit]
    diagnostics: List[Diagnostic]


class _ParseError(Exception):
    def __init__(self, diag: Diagnostic):
        self.diag = diag


class _Parser:
    def __init__(self, tokens: List[Token], source_name: str):
        self.tokens = tokens
        self.pos = 0
        self.source_name = source_name
        self.diags: List[Diagnostic] = []

    # --- token helpers -------------------------------------------------

    def peek(self, offset=0) -> Optional[Token]:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def loc(self) -> SourceLoc:
        tok = self.peek()
        if tok is not None:
            return tok.location
        if self.tokens:
            return self.tokens[-1].location
        return SourceLoc(self.source_name, 1, 1)

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise _ParseError(error("unexpected-eof", "unexpected end of input", self.loc()))
        self.pos += 1
        return tok

    def check(self, kind: str, text: Optional[str] = None, offset: int = 0) -> bool:
        tok = self.peek(offset)
        return tok is not None and tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, text):
            return self.take()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok is None:
            want = text or kind
            raise _ParseError(error("unexpected-eof", f"expected '{want}', found end of input", self.loc()))
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise _ParseError(error(
                "unexpected-token",
                f"expected '{want}', found '{tok.text}'", tok.location))
        return self.take()

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "identifier":
            found = tok.text if tok else "end of input"
            raise _ParseError(error(
                "unexpected-token", f"expected {what}, found '{found}'",
                self.loc()))
        return self.take()

    def sync_top_level(self):
        """Skip forward to the next top-level description or directive."""
        while not self.at_end():
            tok = self.peek()
            if tok.kind == "keyword" and tok.text in ("signature", "celltype", "cell"):
                return
            if self.check("punct", "[") and self.check("keyword", "generate", 1):
                return
            self.take()

    # --- grammar -------------------------------------------------------

    def parse_unit(self) -> CdlUnit:
        signatures, celltypes, cells = [], [], []
        while not self.at_end():
            try:
                directive = None
                if self.check("punct", "["):
                    directive = self.parse_directive()
                if self.check("keyword", "signature"):
                    if directive is not None:
                        self.diags.append(error(
                            "misplaced-directive",
                            "[generate(...)] cannot precede a signature",
                            directive.location))
                    signatures.append(self.parse_signature())
                elif self.check("keyword", "celltype"):
                    celltypes.append(self.parse_celltype(directive))
                elif self.check("keyword", "cell"):
                    cells.append(self.parse_cell(directive))
                else:
                    tok = self.peek()
                    raise _ParseError(error(
                        "unexpected-token",
                        f"expected 'signature', 'celltype', or 'cell', found '{tok.text}'",
                        tok.location))
            except _ParseError as exc:
                self.diags.append(exc.diag)
                self.sync_top_level()
        return CdlUnit(self.source_name, tuple(signatures), tuple(celltypes), tuple(cells))

    def parse_directive(self) -> PluginDirective:
        start = self.expect("punct", "[").location
        self.expect("keyword", "generate")
        self.expect("punct", "(")
        name = self.expect_ident("plugin name")
        self.expect("punct", ",")
        arg = self.expect("string")
        self.expect("punct", ")")
        self.expect("punct", "]")
        return PluginDirective(name.text, arg.text, start)

    def parse_signature(self) -> SignatureDef:
        start = self.expect("keyword", "signature").location
        name = self.expect_ident("signature name")
        self.expect("punct", "{")
        functions = []
        while not self.check("punct", "}"):
            functions.append(self.parse_function())
        self.expect("punct", "}")
        self.expect("punct", ";")
        return SignatureDef(name.text, tuple(functions), start)

    def parse_function(self) -> FunctionDecl:
        ret = self.expect_ident("return type")
        name = self.expect_ident("function name")
        self.expect("punct", "(")
        params = []
        if self.check("identifier", "void") and self.check("punct", ")", 1):
            self.take()
        else:
            while not self.check("punct", ")"):
                params.append(self.parse_param())
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        self.expect("punct", ";")
        return FunctionDecl(name.text, ret.text, tuple(params), name.location)

    def parse_param(self) -> ParamDecl:
        open_tok = self.expect("punct", "[")
        spec_tok = self.expect_ident("parameter specifier")
        if spec_tok.text not in ("in", "out"):
            raise _ParseError(error(
                "unknown-specifier",
                f"unknown parameter specifier '[{spec_tok.text}]'",
                spec_tok.location))
        self.expect("punct", "]")
        c_type = self.expect_ident("parameter type")
        depth = 0
        while self.accept("punct", "*"):
            depth += 1
        name = self.expect_ident("parameter name")
        spec = ParamSpecifier.IN if spec_tok.text == "in" else ParamSpecifier.OUT
        return ParamDecl(spec, c_type.text, depth, name.text, open_tok.location)

    def parse_celltype(self, directive) -> CelltypeDef:
        start = self.expect("keyword", "celltype").location
        name = self.expect_ident("celltype name")
        self.expect("punct", "{")
        call_ports, entry_ports, attrs, vars_, blocks = [], [], [], [], []
        while not self.check("punct", "}"):
            modifiers = []
            mod_loc = self.loc()
            while self.check("punct", "["):
                self.take()
                mod = self.expect_ident("port modifier")
                if mod.text not in ("inline", "omit"):
                    raise _ParseError(error(
                        "unknown-modifier",
                        f"unknown modifier '[{mod.text}]'", mod.location))
                modifiers.append(mod.text)
                self.expect("punct", "]")
            if self.check("keyword", "call") or self.check("keyword", "entry"):
                port = self.parse_port(frozenset(modifiers))
                (call_ports if port.direction is PortDirection.CALL else entry_ports).append(port)
            elif self.check("keyword", "attr"):
                if modifiers:
                    raise _ParseError(error(
                        "misplaced-modifier", "modifiers go on individual attrs", mod_loc))
                attrs.extend(self.parse_attr_block())
            elif self.check("keyword", "var"):
                vars_.extend(self.parse_var_block())
            elif self.check("keyword", "factory") or self.check("keyword", "FACTORY"):
                blocks.append(self.parse_factory_block())
            elif "omit" in modifiers:
                # [omit] directly on an attr outside an attr{} block is not a thing;
                # but [omit]TYPE name appears inside attr blocks only.
                raise _ParseError(error(
                    "unexpected-token", "expected celltype member", mod_loc))
            else:
                tok = self.peek()
                raise _ParseError(error(
                    "unexpected-token",
                    f"expected celltype member, found '{tok.text}'", tok.location))
        self.expect("punct", "}")
        self.expect("punct", ";")
        return CelltypeDef(
            name.text, tuple(call_ports), tuple(entry_ports), tuple(attrs),
            tuple(vars_), tuple(blocks), directive, start)

    def parse_port(self, modifiers) -> PortDecl:
        kw = self.take()
        direction = PortDirection.CALL if kw.text == "call" else PortDirection.ENTRY
        sig = self.expect_ident("signature name")
        port = self.expect_ident("port name")
        self.expect("punct", ";")
        return PortDecl(direction, sig.text, port.text, modifiers, kw.location)

    def parse_attr_block(self):
        self.expect("keyword", "attr")
        self.expect("punct", "{")
        attrs = []
        while not self.check("punct", "}"):
            omit = False
            loc = self.loc()
            if self.accept("punct", "["):
                mod = self.expect_ident("attr modifier")
                if mod.text != "omit":
                    raise _ParseError(error(
                        "unknown-modifier", f"unknown modifier '[{mod.text}]'",
                        mod.location))
                omit = True
                self.expect("punct", "]")
            c_type = self.expect_ident("attr type")
            name = self.expect_ident("attr name")
            default = None
            if self.accept("punct", "="):
                default = self.parse_initializer()
            self.expect("punct", ";")
            attrs.append(AttrDecl(name.text, c_type.text, default, omit, loc))
        self.expect("punct", "}")
        self.expect("punct", ";")
        return attrs

    def parse_var_block(self):
        self.expect("keyword", "var")
        self.expect("punct", "{")
        vars_ = []
        while not self.check("punct", "}"):
            loc = self.loc()
            type_text = self.expect_ident("var type")
            name = self.expect_ident("var name")
            default = None
            if self.accept("punct", "="):
                default = self.parse_initializer()
            self.expect("punct", ";")
            vars_.append(VarDecl(name.text, type_text.text, default, loc))
        self.expect("punct", "}")
        self.expect("punct", ";")
        return vars_

    def parse_factory_block(self) -> FactoryBlock:
        kw = self.take()
        scope = FactoryScope.PER_CELL if kw.text == "factory" else FactoryScope.PER_CELLTYPE
        self.expect("punct", "{")
        writes = []
        while not self.check("punct", "}"):
            w = self.expect("keyword", "write")
            self.expect("punct", "(")
            target = self.expect("string")
            self.expect("punct", ",")
            template = self.expect("string")
            self.expect("punct", ")")
            self.expect("punct", ";")
            writes.append(FactoryWrite(target.text, template.text, w.location))
        self.expect("punct", "}")
        self.expect("punct", ";")
        return FactoryBlock(scope, tuple(writes))

    def parse_cell(self, directive) -> CellDef:
        start = self.expect("keyword", "cell").location
        ct_name = self.expect_ident("celltype name")
        name = self.expect_ident("cell name")
        self.expect("punct", "{")
        bindings, inits = [], []
        while not self.check("punct", "}"):
            lhs = self.expect_ident("port or attr name")
            self.expect("punct", "=")
            if self.check("identifier") and self.check("punct", ".", 1):
                target_cell = self.take()
                self.take()  # '.'
                target_port = self.expect_ident("binding target")
                bindings.append(Binding(
                    lhs.text, target_cell.text, target_port.text, lhs.location))
            elif self.check("punct", ";") or self.check("punct", "}"):
                raise _ParseError(error(
                    "expected-binding-target",
                    f"expected binding target or initializer after '{lhs.text} ='",
                    self.loc()))
            else:
                inits.append(AttrInit(lhs.text, self.parse_initializer(), lhs.location))
            self.expect("punct", ";")
        self.expect("punct", "}")
        self.expect("punct", ";")
        return CellDef(name.text, ct_name.text, tuple(bindings), tuple(inits),
                       directive, start)

    def parse_initializer(self) -> Initializer:
        if self.accept("keyword", "C_EXP"):
            self.expect("punct", "(")
            text = self.expect("string")
            self.expect("punct", ")")
            return Initializer(InitKind.C_EXP, text.text)
        tok = self.peek()
        if tok is not None and tok.kind in ("integer", "identifier"):
            self.take()
            return Initializer(InitKind.LITERAL, tok.text)
        found = tok.text if tok else "end of input"
        raise _ParseError(error(
            "expected-initializer", f"expected initializer, found '{found}'",
            self.loc()))


def parse_unit(text: str, source_name: str = "<memory>") -> ParseResult:
    tokens, diags = tokenize(text, source_name)
    if has_errors(diags):
        return ParseResult(None, diags)
    parser = _Parser(tokens, source_name)
    unit = parser.parse_unit()
    diags = diags + parser.diags
    if has_errors(diags):
        return ParseResult(None, diags)
    return ParseResult(unit, diags)


# --- canonical renderer ------------------------------------------------

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


def _quote(s: str) -> str:
    return '"' + "".join(_STRING_ESCAPES.get(c, c) for c in s) + '"'


def _render_initializer(init: Initializer) -> str:
    if init.kind is InitKind.C_EXP:
        return f"C_EXP({_quote(init.text)})"
    return init.text


def _render_directive(d) -> str:
    return f"[generate({d.plugin_name}, {_quote(d.argument)})]"


def render_unit(unit: CdlUnit) -> str:
    """Canonical CDL text; parse_unit(render_unit(u)) equals u."""
    out: List[str] = []

    for sig in unit.signatures:
        out.append(f"signature {sig.name} {{")
        for f in sig.functions:
            if f.params:
                params = ", ".join(
                    f"[{p.specifier.value}] {p.c_type}{'*' * p.pointer_depth} {p.name}"
                    for p in f.params)
            else:
                params = "void"
            out.append(f"    {f.return_type} {f.name}( {params} );")
        out.append("};")
        out.append("")

    for ct in unit.celltypes:
        if ct.generate_directive:
            out.append(_render_directive(ct.generate_directive))
        out.append(f"celltype {ct.name} {{")
        for p in ct.ports:
            mods = "".join(f"[{m}] " for m in sorted(p.modifiers))
            out.append(f"    {mods}{p.direction.value} {p.signature_name} {p.port_name};")
        if ct.attrs:
            out.append("    attr {")
            for a in ct.attrs:
                omit = "[omit] " if a.omit else ""
                default = f" = {_render_initializer(a.default)}" if a.default else ""
                out.append(f"        {omit}{a.c_type} {a.name}{default};")
            out.append("    };")
        if ct.vars:
            out.append("    var {")
            for v in ct.vars:
                default = f" = {_render_initializer(v.default)}" if v.default else ""
                out.append(f"        {v.type_text} {v.name}{default};")
            out.append("    };")
        for block in ct.factory_blocks:
            out.append(f"    {block.scope.value} {{")
            for w in block.writes:
                out.append(f"        write({_quote(w.target_file)}, {_quote(w.template)});")
            out.append("    };")
        out.append("};")
        out.append("")

    for cell in unit.cells:
        if cell.generate_directive:
            out.append(_render_directive(cell.generate_directive))
        out.append(f"cell {cell.celltype_name} {cell.name} {{")
        for b in cell.bindings:
            out.append(f"    {b.call_port_name} = {b.target_cell_name}.{b.target_entry_port_name};")
        for init in cell.attr_inits:
            out.append(f"    {init.attr_name} = {_render_initializer(init.value)};")
        out.append("};")
        out.append("")

    return "\n".join(out[:-1]) + "\n" if out else ""
