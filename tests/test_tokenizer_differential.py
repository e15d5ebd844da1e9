"""The production tokenizer against the reference one, on every input.

`reference_tokenizer.tokenize` is the original char-at-a-time scanner.
Both must yield the same (kind, text, file, line, column) per token and
the same diagnostics. The alphabet mixes the token starts with the
characters where a regex and the str predicates disagree: `str.isalpha`
letters (é, ß), `isdigit` but not `\\d` (²), `\\d` but not ASCII (٣),
numeric but not a digit (½), and whitespace the tokenizer does not skip
(\\f, \\v, no-break space, line separator).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tokenizer
from tecsrust.frontend import tokenize

FRAGMENTS = [
    *"{}()[];,=*./-\"\\_", "//", "/*", "*/", "\\n", '\\"', "\\\\",
    " ", "\t", "\n", "\r", "\f", "\v",
    "0", "7", "0x", "0X", "1F", "ag", "x", "cell", "celltype", "C_EXP", "tFoo",
    "é", "ß", "²", "٣", "½", "\u00a0", "\u2028",
]


def stream(result):
    tokens, diags = result
    return [(t.kind, t.text, t.location.file, t.location.line, t.location.column)
            for t in tokens], diags


def assert_same(text):
    assert stream(tokenize(text, "f.cdl")) == \
        stream(reference_tokenizer.tokenize(text, "f.cdl"))


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
