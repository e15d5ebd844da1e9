"""Tokenizer and parser for the CDL subset.

The grammar covers signature, celltype (ports, attr, var, factory/FACTORY),
and cell descriptions, plus [generate(...)] directives and bracketed
modifiers. Anything outside that subset is a clean, located error. The
parser recovers at the next top-level ';' or '}' so one pass can report
several errors.

`tokenize` scans a text with one compiled regex into a `Tokens` stream:
parallel sequences of tags, texts and start offsets, plus the source's
`LineIndex`. It makes no object per token beyond a string literal's
text: keywords, punctuation and names are interned, so each distinct text
exists once, and the offsets sit in an `array`. A tag is the token's text
for keywords and punctuation, and its kind ("identifier", "string",
"integer") otherwise, so the parser tests a token with one comparison.
`LineIndex.locate` (in `diagnostics`) turns an offset into a `SourceLoc` that
keeps the index and the offset; the line is found only when that is read.

`_Parser` walks the stream by index: its helpers compare entries and
return token indices, and an `EOF` tag after the last token spares them a
bounds check. A clean parse makes no location: a located node keeps its
token's offset and the `LineIndex`, and is located when a diagnostic reads it.

A `cell` or `signature` declaration of the common shape is scanned once, by `_scan_cell`
or `_scan_signature`, which build its node as the parser would. It is one token: tag
`CELL` or `SIGNATURE`, text its source slice, offset its start, node in `Tokens.decls`.
The parser takes the node at top level only, with no directive before it. If that pass
reports anything, `parse_unit` parses the text again from plain tokens, so the token
grammar alone reports and recovers.
"""

from __future__ import annotations

import functools
import re
import sys
from typing import Dict, List, Optional, Tuple

from .diagnostics import Diagnostic, LineIndex, Record, SourceLoc, error, has_errors, printable
from .model import (
    AttrDecl, AttrInit, Binding, CdlUnit, CellDef, CelltypeDef, FactoryBlock, FactoryScope,
    FactoryWrite, FunctionDecl, InitKind, Initializer, ParamDecl, ParamSpecifier,
    PluginDirective, PortDecl, PortDirection, SignatureDef, VarDecl,
)

KEYWORDS = {
    "signature", "celltype", "cell", "call", "entry", "attr", "var",
    "factory", "FACTORY", "generate", "C_EXP", "write",
}
EOF = None  # the tag after the last token


_KEYWORD = "(?:%s)(?!\\w)" % "|".join(sorted(KEYWORDS))
_INTEGER = r"-?(?:0[xX][0-9a-fA-F]*|[0-9]+(?![0-9]|[^\x00-\x7f]))"
_STRING = r'(?:\\.|[^"\\\n])*'

# One alternative per token class; the named group that matched is the
# token class, and whitespace and comments match unnamed. `decl` is where a
# fast-path cell or signature may start; its first character is outside the
# group, so that the regex engine rejects it at any other character without
# entering it. `fixed` is a keyword or punctuation, whose text is its tag.
# `other` takes a bad character, or the start of a token with non-ASCII
# letters or digits, which `_scan_other` finishes with the str predicates.
_TOKEN = r"""
    [ \t\r\n]+
  | //[^\n]*
  | /\*.*?\*/
  | [cs\[](?P<decl>(?<=c)ell(?!\w)|(?<=s)ignature(?!\w)|(?<=\[)(?=[ \t\r\n]*generate(?!\w)))
  | (?P<fixed>%s|[{}()\[\];,=*.])
  | (?P<identifier>[A-Za-z_]\w*)
  | (?P<integer>%s)
  | "(?P<string>%s)"
  | (?P<open_string>"%s\\?)
  | (?P<open_comment>/\*)
  | (?P<other>.)
""" % (_KEYWORD, _INTEGER, _STRING, _STRING)
_WORD_TAIL = re.compile(r"\w*")  # \w is exactly str.isalnum() or '_'
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_UNESCAPE = {"n": "\n", "t": "\t"}

# A fast-path declaration is a head, then members up to `};`, each with the separators after
# it; the empty alternative matches where none does. A match's `lastindex` is its kind. In
# `_MEMBER`: a binding, C_EXP or literal (3, 4, 5) or the close (6). In `_FUNCTION_MEMBER`: a
# parameter (4, or 5 with a comma after it), `R F(` (7), `void );` (8), `);` (9) or the close
# (10); `_FOLLOWS` is what may follow each, the '{' counting as 9. Names are not keywords;
# T ends at a word boundary, or backtracking would split `Tp` in two.
_PARTS = {"s": r"[ \t\r\n]*", "name": r"(?!%s)[A-Za-z_]\w*" % _KEYWORD,
          "string": _STRING, "integer": _INTEGER}
_CELL_HEAD = r"""(?:\[%(s)sgenerate%(s)s\(%(s)s(?P<plugin>%(name)s)%(s)s,%(s)s"(?P<arg>%(string)s)"
    %(s)s\)%(s)s\]%(s)s)?(?P<cell>cell)[ \t\r\n]+(?P<celltype>%(name)s)[ \t\r\n]+(?P<name>%(name)s)
    %(s)s\{%(s)s""" % _PARTS
_MEMBER = r"""(?:(%(name)s)%(s)s=%(s)s
    (?: (%(name)s)%(s)s\.%(s)s(%(name)s) | C_EXP%(s)s\(%(s)s"(%(string)s)"%(s)s\)
      | (%(integer)s|%(name)s) )%(s)s;%(s)s | \}%(s)s;() | )""" % _PARTS
_SIGNATURE_HEAD = r"signature[ \t\r\n]+(%(name)s)%(s)s\{%(s)s" % _PARTS
_PARAM = r"\[%(s)s(in|out)%(s)s\]%(s)s(%(name)s)(?!\w)%(s)s((?:\*%(s)s)*)(%(name)s)" % _PARTS
_FUNCTION_MEMBER = r"""(?:%(param)s%(s)s(?:(,)%(s)s)? | (%(name)s)[ \t\r\n]+(%(name)s)%(s)s\(%(s)s
    | void%(s)s\)%(s)s;%(s)s() | \)%(s)s;%(s)s() | \}%(s)s;() | )""" % dict(_PARTS, param=_PARAM)
_FOLLOWS = {9: (7, 10), 8: (7, 10), 7: (4, 5, 8, 9), 5: (4, 5, 9), 4: (9,)}
_SPECIFIERS = {"in": ParamSpecifier.IN, "out": ParamSpecifier.OUT}
CELL, SIGNATURE = "cell declaration", "signature declaration"
_compiled = functools.cache(lambda p: re.compile(p, re.DOTALL | re.VERBOSE))  # at first use


def _unescape(string: str) -> str:
    return _ESCAPE.sub(lambda e: _UNESCAPE.get(e[1], e[1]), string) if "\\" in string else string


class Tokens:
    """The token stream of one source, as parallel sequences.

    Token i has tag `tags[i]`, text `texts[i]` and start offset
    `offsets[i]`. `tags` and `offsets` hold one entry more than there are
    tokens: the `EOF` tag, and the last token's offset (0 if none), so
    the parser can look one token past the end and locate it.
    """

    __slots__ = ("tags", "texts", "offsets", "lines", "decls")

    def __init__(self, lines: LineIndex):
        self.tags: List[Optional[str]] = []
        self.texts: List[str] = []
        self.offsets = lines.offset_array()
        self.lines = lines
        self.decls: Dict[int, object] = {}  # token index -> its `CellDef` or `SignatureDef`

    def __len__(self) -> int:
        return len(self.texts)


def tokenize(text: str, source_name: str = "<memory>") -> Tuple[Tokens, List[Diagnostic]]:
    return _tokenize(text, source_name, True)


def _tokenize(text: str, source_name: str, decls: bool) -> Tuple[Tokens, List[Diagnostic]]:
    """Scan `text`; with `decls`, each fast-path declaration is one token and its node."""
    tokens = Tokens(LineIndex(text, source_name))
    tag, add_text, add_offset = tokens.tags.append, tokens.texts.append, tokens.offsets.append
    diags: List[Diagnostic] = []
    intern, scan, lines = sys.intern, _compiled(_TOKEN).finditer, tokens.lines
    pos, n = 0, len(text)
    while pos < n:
        for m in scan(text, pos):
            kind = m.lastgroup
            if kind is None:
                continue
            if kind == "fixed":
                word = intern(m.group())
                tag(word)
            elif kind == "identifier" or kind == "integer":
                word = intern(m.group())
                tag(kind)
            elif kind == "string":
                word = _unescape(m.group(kind))
                tag(kind)
            elif kind == "decl":
                sig = text[m.start()] == "s"
                decl = decls and (_scan_signature if sig else _scan_cell)(text, m.start(), lines)
                if decl:  # resume the scan after the declaration
                    tokens.decls[len(tokens.texts)], pos = decl
                    tag(SIGNATURE if sig else CELL)
                    add_text(text[m.start():pos])
                    add_offset(m.start())
                    break
                word = intern(m.group())
                tag(word)
            elif kind == "open_string":
                diags.append(error("unterminated-string", "unterminated string literal",
                                   lines.locate(m.start())))
                continue
            elif kind == "open_comment":
                diags.append(error("unterminated-comment", "unterminated '/*' comment",
                                   lines.locate(m.start())))
                pos = n
                break
            else:
                start = m.start()
                end = _scan_other(text, start, tokens, diags)
                if end > start + 1:  # resume the scan after a longer token
                    pos = end
                    break
                continue
            add_text(word)
            add_offset(m.start())
        else:
            pos = n
    tag(EOF)
    add_offset(tokens.offsets[-1] if tokens.offsets else 0)
    return tokens, diags


def _scan_cell(text, start, lines) -> Optional[Tuple[CellDef, int]]:
    """The fast-path cell at `start`, as `parse_cell` builds it, and its end; or None."""
    head, intern, bindings, inits = _compiled(_CELL_HEAD).match(text, start), sys.intern, [], []
    for m in _compiled(_MEMBER).finditer(text, head.end()) if head else ():
        kind = m.lastindex
        if kind == 6:
            directive = head["plugin"] and PluginDirective(
                intern(head["plugin"]), _unescape(head["arg"]), start, lines)
            return CellDef(intern(head["name"]), intern(head["celltype"]), tuple(bindings),
                           tuple(inits), directive, head.start("cell"), lines), m.end()
        if kind is None:
            return None
        if kind == 3:
            bindings.append(Binding(intern(m[1]), intern(m[2]), intern(m[3]), m.start(), lines))
        else:
            value = (Initializer(InitKind.C_EXP, _unescape(m[4])) if kind == 4
                     else Initializer(InitKind.LITERAL, intern(m[5])))
            inits.append(AttrInit(intern(m[1]), value, m.start(), lines))


def _scan_signature(text, start, lines) -> Optional[Tuple[SignatureDef, int]]:
    """The fast-path signature at `start`, as `parse_signature` builds it, and its end; or None."""
    head, intern, funcs, state = _compiled(_SIGNATURE_HEAD).match(text, start), sys.intern, [], 9
    for m in _compiled(_FUNCTION_MEMBER).finditer(text, head.end()) if head else ():
        kind = m.lastindex
        if kind not in _FOLLOWS[state]:
            return None
        if kind <= 5:
            params.append(ParamDecl(_SPECIFIERS[m[1]], intern(m[2]), m[3].count("*"),
                                    intern(m[4]), m.start(), lines))
        elif kind == 7:
            ret, name, at, params = m[6], m[7], m.start(7), []
        elif kind != 10:
            funcs.append(FunctionDecl(intern(name), intern(ret), tuple(params), at, lines))
        else:
            return SignatureDef(intern(head[1]), tuple(funcs), start, lines), m.end()
        state = kind


def _scan_other(text, i, tokens, diags) -> int:
    """Scan the token at text[i] with the str predicates; return its end."""
    c = text[i]
    if c.isdigit() or (c == "-" and text[i + 1:i + 2].isdigit()):
        # hex needs an ASCII "0x", which `_TOKEN` always takes itself
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        kind = "integer"
    elif c.isalpha():  # keywords are ASCII, so this is an identifier
        j = _WORD_TAIL.match(text, i + 1).end()
        kind = "identifier"
    else:
        diags.append(error("bad-character", f"unexpected character {c!r}",
                           tokens.lines.locate(i)))
        return i + 1
    tokens.tags.append(kind)
    tokens.texts.append(text[i:j])
    tokens.offsets.append(i)
    return j


class ParseResult(Record):
    __slots__ = ("unit", "diagnostics")


class _ParseError(Exception):
    def __init__(self, diag: Diagnostic):
        self.diag = diag


_TOP_LEVEL = {"signature", "celltype", "cell", EOF}


class _Parser:
    def __init__(self, tokens: Tokens):
        self.tags, self.texts = tokens.tags, tokens.texts
        self.offsets, self.lines, self.decls = tokens.offsets, tokens.lines, tokens.decls
        self.pos = 0
        self.diags: List[Diagnostic] = []

    # --- token helpers -------------------------------------------------
    # Each tests or takes the token at `pos`, and `take`, `expect` and
    # `expect_ident` return its index. `EOF` ends every loop: no check
    # matches it, and `take` only follows a check that matched.

    def at_end(self) -> bool:
        return self.tags[self.pos] is EOF

    def loc(self, i: Optional[int] = None) -> SourceLoc:
        """Where token i (default: the current one) starts; at EOF, the last token."""
        return self.lines.locate(self.offsets[self.pos if i is None else i])

    def found(self) -> str:
        return "end of input" if self.at_end() else printable(self.texts[self.pos])

    def unexpected(self, want: str) -> _ParseError:
        code = "unexpected-eof" if self.at_end() else "unexpected-token"
        found = "end of input" if self.at_end() else f"'{self.found()}'"
        return _ParseError(error(code, f"expected {want}, found {found}", self.loc()))

    def take(self) -> int:
        self.pos += 1
        return self.pos - 1

    def check(self, tag: str, offset: int = 0) -> bool:
        return self.tags[self.pos + offset] == tag

    def accept(self, tag: str) -> bool:
        if self.tags[self.pos] == tag:
            self.pos += 1
            return True
        return False

    def expect(self, tag: str) -> int:
        i = self.pos
        if self.tags[i] != tag:
            raise self.unexpected(f"'{tag}'")
        self.pos = i + 1
        return i

    def expect_ident(self, what: str) -> int:
        i = self.pos
        if self.tags[i] != "identifier":
            raise _ParseError(error(
                "unexpected-token", f"expected {what}, found '{self.found()}'", self.loc()))
        self.pos = i + 1
        return i

    def sync_top_level(self):
        """Skip forward to the next top-level description or directive."""
        tags = self.tags
        while tags[self.pos] not in _TOP_LEVEL:
            if tags[self.pos] == "[" and tags[self.pos + 1] == "generate":
                return
            self.pos += 1

    # --- grammar -------------------------------------------------------
    # Token indices are kept until a node is built; `texts[i]` is the text.

    def parse_unit(self) -> CdlUnit:
        signatures, celltypes, cells = [], [], []
        while not self.at_end():
            try:
                directive = None
                if self.check("["):
                    directive = self.parse_directive()
                if self.check("signature"):
                    if directive is not None:
                        self.diags.append(error(
                            "misplaced-directive",
                            "[generate(...)] cannot precede a signature",
                            directive.location))
                    signatures.append(self.parse_signature())
                elif self.check("celltype"):
                    celltypes.append(self.parse_celltype(directive))
                elif self.check("cell"):
                    cells.append(self.parse_cell(directive))
                elif self.tags[self.pos] in (CELL, SIGNATURE) and directive is None:
                    # a node `tokenize` built; after a directive, the plain pass parses it
                    (cells if self.check(CELL) else signatures).append(self.decls[self.take()])
                else:
                    raise self.unexpected("'signature', 'celltype', or 'cell'")
            except _ParseError as exc:
                self.diags.append(exc.diag)
                self.sync_top_level()
        return CdlUnit(self.lines.source_name, tuple(signatures), tuple(celltypes),
                       tuple(cells))

    def parse_directive(self) -> PluginDirective:
        at = self.offsets[self.expect("[")]
        self.expect("generate")
        self.expect("(")
        name = self.expect_ident("plugin name")
        self.expect(",")
        arg = self.expect("string")
        self.expect(")")
        self.expect("]")
        return PluginDirective(self.texts[name], self.texts[arg], at, self.lines)

    def block(self, item) -> list:
        """`{ item* } ;`: what `item()` returns for each item before the '}'."""
        self.expect("{")
        items = []
        while not self.check("}"):
            items.append(item())
        self.expect("}")
        self.expect(";")
        return items

    def modifier(self, what: str, allowed) -> str:
        """The rest of a `[name]` modifier after its '[': `name` must be in `allowed`."""
        mod = self.expect_ident(what)
        if self.texts[mod] not in allowed:
            raise _ParseError(error(
                "unknown-modifier", f"unknown modifier '[{self.texts[mod]}]'", self.loc(mod)))
        self.expect("]")
        return self.texts[mod]

    def parse_signature(self) -> SignatureDef:
        start = self.expect("signature")
        name = self.expect_ident("signature name")
        return SignatureDef(self.texts[name], tuple(self.block(self.parse_function)),
                            self.offsets[start], self.lines)

    def parse_function(self) -> FunctionDecl:
        ret = self.expect_ident("return type")
        name = self.expect_ident("function name")
        self.expect("(")
        params = []
        if self.check("identifier") and self.texts[self.pos] == "void" and self.check(")", 1):
            self.take()
        else:
            while not self.check(")"):
                params.append(self.parse_param())
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect(";")
        return FunctionDecl(self.texts[name], self.texts[ret], tuple(params),
                            self.offsets[name], self.lines)

    def parse_param(self) -> ParamDecl:
        start = self.expect("[")
        spec = self.texts[self.expect_ident("parameter specifier")]
        if spec not in _SPECIFIERS:
            raise _ParseError(error(
                "unknown-specifier", f"unknown parameter specifier '[{spec}]'",
                self.loc(start + 1)))
        self.expect("]")
        c_type = self.expect_ident("parameter type")
        depth = 0
        while self.accept("*"):
            depth += 1
        name = self.expect_ident("parameter name")
        return ParamDecl(_SPECIFIERS[spec], self.texts[c_type], depth, self.texts[name],
                         self.offsets[start], self.lines)

    def parse_celltype(self, directive) -> CelltypeDef:
        start = self.expect("celltype")
        name = self.expect_ident("celltype name")
        members = {"call": [], "entry": [], "attr": [], "var": [], "factory": []}  # field order
        for kind, nodes in self.block(self.parse_celltype_member):
            members[kind] += nodes
        return CelltypeDef(self.texts[name], *map(tuple, members.values()), directive,
                           self.offsets[start], self.lines)

    def parse_celltype_member(self) -> Tuple[str, list]:
        """A port, an attr or var block, or a factory block: its kind and its nodes."""
        member, modifiers = self.pos, []
        while self.accept("["):
            modifiers.append(self.modifier("port modifier", ("inline", "omit")))
        kind = self.tags[self.pos]
        if kind == "call" or kind == "entry":
            return kind, [self.parse_port(frozenset(modifiers))]
        if modifiers and kind in ("attr", "var", "factory", "FACTORY"):
            raise _ParseError(error("misplaced-modifier", "modifiers go on individual attrs"
                                    if kind == "attr" else f"a {kind} block takes no modifiers",
                                    self.loc(member)))
        if kind == "attr" or kind == "var":
            self.take()
            return kind, self.block(lambda: self.parse_member(kind))
        if kind == "factory" or kind == "FACTORY":
            return "factory", [self.parse_factory_block()]
        if "omit" in modifiers:  # [omit] belongs on an attr inside an attr block
            raise _ParseError(error(
                "unexpected-token", "expected celltype member", self.loc(member)))
        raise self.unexpected("celltype member")

    def parse_port(self, modifiers) -> PortDecl:
        kw = self.take()
        direction = PortDirection.CALL if self.tags[kw] == "call" else PortDirection.ENTRY
        sig = self.expect_ident("signature name")
        port = self.expect_ident("port name")
        self.expect(";")
        return PortDecl(direction, self.texts[sig], self.texts[port], modifiers, self.offsets[kw],
                        self.lines)

    def parse_member(self, kind: str):
        """An attr or a var, `kind`, of a block: `T N [= init];`, an attr maybe `[omit]`."""
        start = self.pos
        omit = kind == "attr" and self.accept("[")
        if omit:
            self.modifier("attr modifier", ("omit",))
        c_type = self.expect_ident(f"{kind} type")
        name = self.expect_ident(f"{kind} name")
        default = self.parse_initializer() if self.accept("=") else None
        self.expect(";")
        fields = (self.texts[name], self.texts[c_type], default) + (omit,) * (kind == "attr")
        return (AttrDecl if kind == "attr" else VarDecl)(*fields, self.offsets[start], self.lines)

    def parse_factory_block(self) -> FactoryBlock:
        kw = self.take()
        scope = FactoryScope.PER_CELL if self.tags[kw] == "factory" else FactoryScope.PER_CELLTYPE
        return FactoryBlock(scope, tuple(self.block(self.parse_write)))

    def parse_write(self) -> FactoryWrite:
        w = self.expect("write")
        self.expect("(")
        target = self.expect("string")
        self.expect(",")
        template = self.expect("string")
        self.expect(")")
        self.expect(";")
        return FactoryWrite(self.texts[target], self.texts[template], self.offsets[w], self.lines)

    def parse_cell(self, directive) -> CellDef:
        at = self.offsets[self.expect("cell")]
        ct_name = self.expect_ident("celltype name")
        name = self.expect_ident("cell name")
        members = self.block(self.parse_cell_member)
        return CellDef(self.texts[name], self.texts[ct_name],
                       tuple(m for m in members if type(m) is Binding),
                       tuple(m for m in members if type(m) is AttrInit), directive, at, self.lines)

    def parse_cell_member(self):
        """A binding `lhs = cell.port;` or an attr initializer `lhs = init;`."""
        lhs = self.expect_ident("port or attr name")
        self.expect("=")
        if self.check("identifier") and self.check(".", 1):
            target_cell = self.take()
            self.take()  # '.'
            target_port = self.expect_ident("binding target")
            member = Binding(self.texts[lhs], self.texts[target_cell], self.texts[target_port],
                             self.offsets[lhs], self.lines)
        elif self.check(";") or self.check("}"):
            raise _ParseError(error(
                "expected-binding-target",
                f"expected binding target or initializer after '{self.texts[lhs]} ='",
                self.loc()))
        else:
            member = AttrInit(self.texts[lhs], self.parse_initializer(), self.offsets[lhs],
                              self.lines)
        self.expect(";")
        return member

    def parse_initializer(self) -> Initializer:
        if self.accept("C_EXP"):
            self.expect("(")
            text = self.expect("string")
            self.expect(")")
            return Initializer(InitKind.C_EXP, self.texts[text])
        if self.check("integer") or self.check("identifier"):
            return Initializer(InitKind.LITERAL, self.texts[self.take()])
        raise _ParseError(error(
            "expected-initializer", f"expected initializer, found '{self.found()}'",
            self.loc()))


def parse_unit(text: str, source_name: str = "<memory>") -> ParseResult:
    result = _parse(*tokenize(text, source_name))
    if result.diagnostics:  # the plain token parser alone reports and recovers
        result = _parse(*_tokenize(text, source_name, False))
    return result


def _parse(tokens: Tokens, diags: List[Diagnostic]) -> ParseResult:
    if not has_errors(diags):
        parser = _Parser(tokens)
        unit = parser.parse_unit()
        diags = diags + parser.diags
    return ParseResult(None if has_errors(diags) else unit, diags)
