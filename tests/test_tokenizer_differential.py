"""The production tokenizer against the reference one, on every input.

`reference_tokenizer.tokenize` is the original char-at-a-time scanner.
Both must yield the same (tag, text, location) per token and the same
diagnostics, where the reference's tag is the text of a keyword or
punctuation token and its kind otherwise. The alphabet mixes the token
starts with the characters where a regex and the str predicates disagree:
`str.isalpha` letters (é, ß), `isdigit` but not `\\d` (²), `\\d` but not
ASCII (٣), numeric but not a digit (½), and whitespace the tokenizer does
not skip (\\f, \\v, no-break space, line separator).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tokenizer
from tecsrust.frontend import CELL, EOF, SIGNATURE, _tokenize, tokenize

FRAGMENTS = [
    *"{}()[];,=*./-\"\\_", "//", "/*", "*/", "\\n", '\\"', "\\\\",
    " ", "\t", "\n", "\r", "\f", "\v",
    "0", "7", "0x", "0X", "1F", "ag", "x", "cell", "celltype", "C_EXP", "tFoo",
    "é", "ß", "²", "٣", "½", "\u00a0", "\u2028",
]


def stream(text):
    """The token stream, with each `CELL` or `SIGNATURE` token expanded into
    the plain tokens of its text, located as if scanned in place."""
    tokens, diags = tokenize(text, "f.cdl")
    n = len(tokens)
    assert tokens.tags[n:] == [EOF]
    assert list(tokens.offsets[n:]) == [tokens.offsets[n - 1] if n else 0]
    out = []
    for tag, word, offset in zip(tokens.tags, tokens.texts, tokens.offsets):
        if tag != CELL and tag != SIGNATURE:
            out.append((tag, word, tokens.lines.locate(offset)))
            continue
        assert text.startswith(word, offset)
        plain, plain_diags = _tokenize(word, "f.cdl", False)
        assert plain_diags == []
        out += [(t, w, tokens.lines.locate(offset + o))
                for t, w, o in zip(plain.tags[:-1], plain.texts, plain.offsets)]
    return out, diags


def reference_stream(text):
    tokens, diags = reference_tokenizer.tokenize(text, "f.cdl")
    return [(t.text if t.kind in ("keyword", "punct") else t.kind, t.text, t.location)
            for t in tokens], diags


def assert_same(text):
    assert stream(text) == reference_stream(text)


@pytest.mark.parametrize("text", [
    "1²", "12é", "-²", "-1²3", "0²", "0x1²", "-0xFFg", "0x", "- 1", "é_1cell", "aé½",
    "½", "٣٣x", "ß", "\u00a0\u2028\f\v\r", "/* open", '"open\nx', '"tail\\',
    '"a\\\nb" c', '"q\\"x\\n"', "cell\u2028tX", "/ *", "celltypes cell_ C_EXP2",
])
def test_tricky_inputs(text):
    assert_same(text)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
def test_fragment_strings(text):
    assert_same(text)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_arbitrary_text(text):
    assert_same(text)


@pytest.mark.parametrize("text", [
    'cell tT c {};',
    '[generate(P, "a\\"b")]\ncell tT c {\n\tx = y.e;\r\n  v = C_EXP("q\\\\n");\n  n = -0x1F;\n};',
    'cell tT c { x = y . e ; } ; cell tU d {};',
])
def test_cell_declarations_expand_to_plain_tokens(text):
    tokens, _ = tokenize(text, "f.cdl")
    assert CELL in tokens.tags
    assert_same(text)


@pytest.mark.parametrize("text", [
    "signature sS {};",
    "signature sS {\n\tvoid f( void );\r\n  int32_t g( );\n};",
    "signature sS{int32_t f([in]T*p,[ out ]int8_t * * q);}; signature sT { void g(void); };",
    "signature sS { void f( [in] T a, ); void g( ); };",
])
def test_signature_declarations_expand_to_plain_tokens(text):
    tokens, _ = tokenize(text, "f.cdl")
    assert SIGNATURE in tokens.tags
    assert_same(text)
