"""The production parser against the reference one, on valid and broken CDL.

`reference_parser.parse_unit` is the token-object parser that came before
the index-based one, driven by the reference tokenizer. Both must give an
equal unit, equal diagnostics in the same order, and the same `SourceLoc`
on every AST node. Node equality skips locations (`compare=False`), so
they are collected by walking the dataclass fields.

The inputs are the golden CDL files, rendered `strategies.cdl_units`, and
token-level mutants of both: a token dropped, duplicated or swapped with
another, or the text cut after a token.
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser
from conftest import golden
from strategies import cdl_units
from tecsrust.frontend import parse_unit, render_unit
from tecsrust.model import SourceLoc

GOLDEN_TEXTS = [golden("sample.cdl"), golden("kernel_rs.cdl")]

# One lexeme and the whitespace after it; comments and strings stay whole.
_PIECE = re.compile(r'(//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\w+|\S)(\s*)', re.DOTALL)


def locations(node, path="unit"):
    """(path, SourceLoc) for every location in an AST, in field order."""
    if isinstance(node, SourceLoc):
        yield path, node
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from locations(getattr(node, f.name), f"{path}.{f.name}")
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
    assert got.diagnostics == want.diagnostics
    assert list(locations(got.unit)) == list(locations(want.unit))


@st.composite
def mutants(draw):
    text = draw(st.sampled_from(GOLDEN_TEXTS) | cdl_units().map(render_unit))
    pieces = _PIECE.findall(text)
    for _ in range(draw(st.integers(1, 3))):
        if not pieces:
            break
        i = draw(st.integers(0, len(pieces) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "truncate"]))
        if op == "drop":
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


@settings(max_examples=100, deadline=None)
@given(cdl_units())
def test_rendered_units(unit):
    assert_same(render_unit(unit))


@settings(max_examples=400, deadline=None)
@given(mutants())
def test_token_mutants(text):
    assert_same(text)
