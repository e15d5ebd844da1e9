"""The token-object parser tecsrust shipped before the index-based one.

`test_parser_differential.py` requires `tecsrust.frontend.parse_unit` to
give the same unit, the same diagnostics in the same order and the same
`SourceLoc` on every AST node as this parser, driven by the reference
tokenizer. `_Parser` and `parse_unit` are the original code, unchanged
except that `parse_unit` tokenizes with `reference_tokenizer.tokenize`, and
that modifiers before a `var`, `factory` or `FACTORY` block are a
`misplaced-modifier`, as they always were before an `attr` block. It builds
diagnostics with the reference tokenizer's `error` and tests them with its own
`has_errors`, copies of the `diagnostics` functions as they were when it was
frozen, so that no edit to `src/` can change what it gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from reference_tokenizer import Token, error, tokenize
from tecsrust.diagnostics import Diagnostic, Severity, SourceLoc
from tecsrust.model import (
    AttrDecl, AttrInit, Binding, CdlUnit, CellDef, CelltypeDef, FactoryBlock, FactoryScope,
    FactoryWrite, FunctionDecl, InitKind, Initializer, ParamDecl, ParamSpecifier,
    PluginDirective, PortDecl, PortDirection, SignatureDef, VarDecl,
)


def has_errors(diags) -> bool:
    return any(d.severity is Severity.ERROR for d in diags)


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
                if modifiers:
                    raise _ParseError(error(
                        "misplaced-modifier", "a var block takes no modifiers", mod_loc))
                vars_.extend(self.parse_var_block())
            elif self.check("keyword", "factory") or self.check("keyword", "FACTORY"):
                if modifiers:
                    raise _ParseError(error(
                        "misplaced-modifier", f"a {self.peek().text} block takes no modifiers",
                        mod_loc))
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
