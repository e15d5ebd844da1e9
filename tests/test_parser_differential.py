"""The production parser against the reference one, on valid and broken CDL.

`reference_parser.parse_unit` is the token-object parser that came before
the index-based one, driven by the reference tokenizer. Both must give an
equal unit, equal diagnostics in the same order, and the same `SourceLoc`
on every AST node. Node equality skips locations (`compare=False`), so
they are collected by walking the dataclass fields and reading each node's
`location` attribute: a parsed function or parameter holds an offset, not a
`SourceLoc`, and makes one only when that attribute is read.

The inputs are the golden CDL files, rendered `strategies.cdl_units`, and
token-level mutants of both: a token dropped, duplicated or swapped with
another, or the text cut after a token. Cell declarations are also drawn
at the edges of the one-token `CELL` path: odd separators and comments
between their tokens, escaped strings, odd literals and names, a second
directive, a cell inside a celltype body, and truncation. Signature
declarations are drawn at the edges of the `SIGNATURE` path the same way:
odd separators and comments, odd parameter lists, specifiers and pointer
spellings, keywords, words that begin with one and non-ASCII letters in
names, a directive before a signature, a signature inside a celltype body,
signatures back to back, and truncation. Runs of cells, signatures, celltypes and
directives are drawn back to back, with comments, '\\f' or '\\v' between them, a
declaration of another shape inside a run, a last `};` at the end of the text, and
truncation. Any error sends `parse_unit` back to plain tokens, so the declaration tests
also compare the two token streams, which show a fault in the one-token paths.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser
from cdl_renderer import render_unit
from conftest import golden
from records import fields, is_record
from strategies import cdl_units
from tecsrust.diagnostics import Diagnostic, printable
from tecsrust.frontend import CELL, SIGNATURE, parse_unit, tokenize
from test_tokenizer_differential import reference_stream, stream

GOLDEN_TEXTS = [golden("sample.cdl"), golden("kernel_rs.cdl")]

# One lexeme and the whitespace after it; comments and strings stay whole.
_PIECE = re.compile(r'(//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\w+|\S)(\s*)', re.DOTALL)


def locations(node, path="unit"):
    """(path, SourceLoc) for every node's `location` in an AST, after its children."""
    if is_record(node):
        for f in fields(node):
            yield from locations(getattr(node, f), f"{path}.{f}")
        if hasattr(node, "location"):
            yield f"{path}.location", node.location
    elif isinstance(node, tuple):
        for i, item in enumerate(node):
            yield from locations(item, f"{path}[{i}]")


def assert_same(text):
    try:
        want = reference_parser.parse_unit(text, "f.cdl")
    except AttributeError:
        # The reference dereferenced a missing token at end of input, after
        # '[generate(...)]' or inside 'celltype X {'. The production parser
        # reports `unexpected-eof` there (test_frontend pins it).
        return
    got = parse_unit(text, "f.cdl")
    assert got.unit == want.unit
    # the reference quotes CDL text raw; tecsrust shows its control characters as escapes
    assert got.diagnostics == [Diagnostic(d.severity, d.code, printable(d.message), d.location)
                               for d in want.diagnostics]
    assert list(locations(got.unit)) == list(locations(want.unit))


@st.composite
def mutants(draw, replacements=()):
    """A golden or rendered unit with 1-3 lexemes dropped, duplicated, swapped, cut after, or
    replaced by one of `replacements`, if any."""
    text = draw(st.sampled_from(GOLDEN_TEXTS) | cdl_units().map(render_unit))
    pieces = _PIECE.findall(text)
    ops = ["drop", "duplicate", "swap", "truncate"] + ["replace"] * bool(replacements)
    for _ in range(draw(st.integers(1, 3))):
        if not pieces:
            break
        i = draw(st.integers(0, len(pieces) - 1))
        op = draw(st.sampled_from(ops))
        if op == "replace":
            pieces[i] = (draw(st.sampled_from(replacements)), pieces[i][1])
        elif op == "drop":
            del pieces[i]
        elif op == "duplicate":
            pieces.insert(i, pieces[i])
        elif op == "swap":
            j = draw(st.integers(0, len(pieces) - 1))
            (lexeme_i, ws_i), (lexeme_j, ws_j) = pieces[i], pieces[j]
            pieces[i], pieces[j] = (lexeme_j, ws_i), (lexeme_i, ws_j)
        else:
            del pieces[i + 1:]
    return "".join(lexeme + ws for lexeme, ws in pieces)


@pytest.mark.parametrize("name", ["sample.cdl", "kernel_rs.cdl"])
def test_goldens(name):
    assert_same(golden(name))


@pytest.mark.parametrize("text", ['celltype tP { attr { int32_t x = "a\\nb"; }; };',
                                  'cell "x\\ny" {};', 'signature "\\t" {};'])
def test_quoted_text_with_a_control_character(text):
    assert_same(text)


@settings(max_examples=100, deadline=None)
@given(cdl_units())
def test_rendered_units(unit):
    assert_same(render_unit(unit))


@settings(max_examples=400, deadline=None)
@given(mutants())
def test_token_mutants(text):
    assert_same(text)


# Cell-declaration pieces: each list is the common shape's choices, then
# the edge cases that must leave the `CELL` path, drawn once in a while.
NAMES = (["a", "tT", "c_1"], ["éa", "xé", "write", "cell", "C_EXP"])
LITERALS = (["0", "42", "-7", "0x1F", "x"], ["0x", "-0x1F", "12²", "0X"])
STRINGS = (['""', '"TAG_$cell$"', '"a\\"b"', '"\\n\\t"', '"x\\\\"', '"s;}"'], [])
SEPARATORS = ([" ", "\n", "\n    ", "\t", "\r\n", "  "],
              ["", "\f", "\v", "/* c */", "// c\n"])


@st.composite
def cell_texts(draw):
    def pick(choices):
        common, odd = choices
        return draw(st.sampled_from(odd if odd and draw(st.integers(0, 24)) == 24 else common))

    lexemes = []
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        lexemes += ["[", "generate", "(", pick(NAMES), ",", pick(STRINGS), ")", "]"]
    lexemes += ["cell", pick(NAMES), pick(NAMES), "{"]
    for _ in range(draw(st.integers(0, 4))):
        lexemes += [pick(NAMES), "="]
        kind = draw(st.sampled_from(["binding", "c_exp", "literal"]))
        if kind == "binding":
            lexemes += [pick(NAMES), ".", pick(NAMES)]
        elif kind == "c_exp":
            lexemes += ["C_EXP", "(", pick(STRINGS), ")"]
        else:
            lexemes.append(pick(LITERALS))
        lexemes.append(";")
    lexemes += ["}", ";"]
    return "".join(lexeme + pick(SEPARATORS) for lexeme in lexemes)


@st.composite
def cell_units(draw):
    text = "\n".join(draw(st.lists(cell_texts(), min_size=1, max_size=3)))
    if draw(st.integers(0, 9)) == 0:
        text = "celltype tX {\n" + text + "\n};\n"
    if draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=400, deadline=None)
@given(cell_units())
def test_cell_declarations(text):
    assert_same(text)
    assert stream(text) == reference_stream(text)


# shapes the one-pass cell scan takes: each cell here is one `CELL` token
CELL_ONE_PASS_EDGES = [
    'cell tT c {\n  x = 1;\n  y = a.b;\n}\n;',
    'cell tT c { x = 1; };cell tT d { y = a.b; };',
]


@pytest.mark.parametrize("text", [
    'cell tT c {\n  x = C_EXP("a\\"b\\\\");\n};',
    '[generate(P, "l\\ib")] cell tT c { x = 0x; y = -0x1F; };',
    'cell tT c { x = 12²; };',
    'cell tT c { x = 1; // c\n};',
    '[generate(P, "lib")] /* c */ cell tT c {};',
    '[generate(P, "a")]\n[generate(Q, "b")]\ncell tT c {};',
    'cell tT write {};',
    'cell tÉ cé { é = x.é; };',
    'cell tT c { x = 1;\f};',
    'celltype tX { cell tT c {}; };',
    'cell tT c { x = 1; }',
    'cell tT c { x = y.e; @ };',
    'cell tT c { x = 1 y = a.b; };',
    'cell tT c { x = 1; /* c */ y = a.b; };',
    'cell tT c { x = 1; y = a.b;',
    *CELL_ONE_PASS_EDGES,
])
def test_cell_declaration_edges(text):
    assert_same(text)
    assert stream(text) == reference_stream(text)
    if text in CELL_ONE_PASS_EDGES:
        assert tokenize(text)[0].tags.count(CELL) == text.count("cell ")


# Signature-declaration pieces, as for cells. Two word lexemes are always
# separated (an empty separator between them is an odd case, which merges
# them); next to punctuation no separator is as common as any other.
TYPES = (["int32_t", "void", "T", "uint8_t"], ["é", "tÉ", "signature", "in"])
SPECIFIERS = (["in", "out"], ["inout", "In", "x", ""])
TIGHT = (["", " ", "\n", "\t", "\r\n", "  "], ["\f", "\v", "/* c */", "// c\n"])
PARAM_LISTS = ["void", "", "params", "params", "params", "void x", "params,"]


@st.composite
def signature_texts(draw):
    rarity = draw(st.sampled_from([0, 15, 60]))  # 0: the common shape only

    def pick(choices):
        common, odd = choices
        rare = rarity and odd and draw(st.integers(0, rarity)) == rarity
        return draw(st.sampled_from(odd if rare else common))

    lexemes = ["signature", pick(NAMES), "{"]
    for _ in range(draw(st.integers(0, 3))):
        lexemes += [pick(TYPES), pick(NAMES), "("]
        params = draw(st.sampled_from(PARAM_LISTS))
        if params.startswith("void"):
            lexemes += params.split()
        elif params:
            for i in range(draw(st.integers(1, 3))):
                lexemes += [","] * (i > 0) + ["[", pick(SPECIFIERS), "]", pick(TYPES)]
                lexemes += ["*"] * draw(st.integers(0, 2)) + [pick(NAMES)]
            lexemes += [","] * params.endswith(",")
        lexemes += [")", ";"]
    lexemes += ["}", ";"]
    words = [re.match(r"\w", lexeme[-1:]) for lexeme in lexemes]
    return "".join(lexeme + pick(SEPARATORS if word and after else TIGHT)
                   for lexeme, word, after in zip(lexemes, words, words[1:] + [None]))


@st.composite
def signature_units(draw):
    text = "\n".join(draw(st.lists(signature_texts(), min_size=1, max_size=3)))
    if draw(st.integers(0, 9)) == 0:
        text = '[generate(P, "lib")]\n' + text
    if draw(st.integers(0, 9)) == 0:
        text = "celltype tX {\n" + text + "\n};\n"
    if draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=400, deadline=None)
@given(signature_units())
def test_signature_declarations(text):
    assert_same(text)
    assert stream(text) == reference_stream(text)


# shapes `_scan_signature` takes in one pass: each signature here is one `SIGNATURE` token
ONE_PASS_EDGES = [
    "signature sS { void f( ); void g( void ); int32_t h(void); };",
    "signature sS { void f( [in] int32_t a, [out] int32_t* b, ); };",
    "signature sS { void f( [in] int32_t *p, [out] T * * q, [in] uint8_t* r, [out] T*s ); };",
    "signature sS {\n  int32_t f(\n    [in] int32_t a,\n    [out] int32_t* b\n  );\n};",
    "signature sS {\r\n\tvoid\r\nf\r\n(\t[in]\r\n\tint32_t\ta\r\n,\t[out]\tT\n*\n*\nb\r\n)\r\n;\r\n};",
    "signature signatures { cellar entryPoint( [in] cellar calls, [out] attrs* inx ); };",
    "signature cellar { voidx writer( [in] int32_t outer, [in] C_EXPx factoryx ); };",
    "signature sS { void f( void ); };signature sT { void g( [in] T* p ); };",
    "signature sS { void f( void ); }; signature sT {};\nsignature sU { T g( [in] T* p ); };",
    "signature sS { int32_t f( ) ;\n  void g( [in] T a,\n  ); void h( [out] T* b , ); };",
]


@pytest.mark.parametrize("text", [
    "signature sS { void f( [out] int32_tdistance ); };",
    "signature sS { void f( [ in ] int32_t*p, [out] T * * q ); };",
    "signature sS {};",
    "signature sS { void f( ); int32_t g(void); };",
    "signature sS { void f( void x ); };",
    "signature sS { void f( [in] int32_t a, ); };",
    "signature sS { void f( [inout] int32_t a ); };",
    "signature sS { void f( [in] int32_t a b ); };",
    "signature sS { voidf( void ); };",
    "signature sS { void f( /* c */ void ); };",
    "signature sS { // c\n  void f( void ); };",
    "signature sS { void f( [in] int32_t a /* c */ ); };",
    "signature sS {\fvoid f( void ); };",
    "signature sS { void f( [in] int32_t cell ); };",
    "signature cell { void f( void ); };",
    "signature sé { void fé( [in] tÉ é ); };",
    "signature sS { void éf( void ); };",
    '[generate(P, "lib")] signature sS { void f( void ); };',
    "celltype tX { signature sS { void f( void ); }; };",
    "signature sS { void f( void ); }",
    "signature sS { void f( void ) };",
    "signature sS { void f( void ); }; signature sT { void g( [in] int8_t* p ); };",
    "signature sS { void f( void [in] int32_t a ); };",
    "signature sS { void f( void, [in] int32_t a ); };",
    "signature sS { void f( [in] int32_t a [out] T* b ); };",
    "signature sS { void f( void ) void g( void ); };",
    "signature sS { void f( [in] int32_t a, void g( void ); };",
    "signature sS { void f( [in] int32_t a void g( void ); };",
    *ONE_PASS_EDGES,
])
def test_signature_declaration_edges(text):
    assert_same(text)
    assert stream(text) == reference_stream(text)
    if text in ONE_PASS_EDGES:
        assert tokenize(text)[0].tags.count(SIGNATURE) == text.count("signature ")


# Runs of declarations back to back, as `tokenize` chains them: what may come between two,
# what ends the text, and declarations of shapes the one-token paths leave to the plain
# tokens (a comment inside, two directives, a directive before a signature, a bad character)
BETWEEN = ["", "\n", " ", "\n\n", "/* c */", "// c\n", "\n/* a\n b */ // c\n", "\f", "\v",
           "/* c", "\r\n\t"]
OTHER_DECLARATIONS = [
    "celltype tX { entry sS eS; attr { int32_t a = 1; }; };",
    '[generate(RustGenPlugin, "lib")] celltype tX { call sS cS; };',
    '[generate(RustGenPlugin, "lib")]',
    "cell tT c { x = 1; /* c */ y = a.b; };",
    "cell tT c { // c\n  x = C_EXP(\"v\"); };",
    '[generate(P, "a")]\n[generate(Q, "b")]\ncell tT c {};',
    "signature sS { void f( /* c */ void ); };",
    "cell tT c { x = 1;\f};",
]


@st.composite
def declaration_runs(draw):
    pieces = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["cell", "cell", "cell", "signature", "other"]))
        pieces.append(draw(cell_texts() if kind == "cell" else signature_texts()
                           if kind == "signature" else st.sampled_from(OTHER_DECLARATIONS)))
        pieces.append(draw(st.sampled_from(BETWEEN)))
    text = "".join(pieces)
    end = draw(st.sampled_from(["as drawn", "at the last ';'", "cut"]))
    if end == "at the last ';'":
        text = text[:text.rfind(";") + 1]
    elif end == "cut":
        text = text[:draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=400, deadline=None)
@given(declaration_runs())
def test_declaration_runs(text):
    assert_same(text)
    # Any error sends `parse_unit` back to plain tokens, which hides a run that ends or
    # resumes at the wrong place; the token stream shows it.
    assert stream(text) == reference_stream(text)
