import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tecsrust
from cdl_renderer import render_unit
from conftest import golden
from tecsrust.cli import generate
from strategies import cdl_units
from tecsrust.frontend import (
    CELL, EOF, SIGNATURE, LineIndex, parse_unit, tokenize,
)
from tecsrust.diagnostics import Severity, SourceLoc
from tecsrust.model import CdlUnit, InitKind, ParamSpecifier, validate_unit

from test_model import SIG_TEXT

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def tags_and_texts(tokens):
    return list(zip(tokens.tags, tokens.texts))


def test_tokenize_signature_header():
    tokens, diags = tokenize("signature sSensor {")
    assert diags == []
    assert tags_and_texts(tokens) == [
        ("signature", "signature"), ("identifier", "sSensor"), ("{", "{")]


def test_tokenize_empty_input():
    tokens, diags = tokenize("")
    assert len(tokens) == 0 and diags == []


def test_tokens_are_parallel_sequences():
    tokens, _ = tokenize('cell\n  tX "s"', "v.cdl")
    assert len(tokens) == 3
    assert tokens.tags == ["cell", "identifier", "string", EOF]
    assert tokens.texts == ["cell", "tX", "s"]
    assert [str(tokens.lines.locate(o)) for o in tokens.offsets] == [
        "v.cdl:1:1", "v.cdl:2:3", "v.cdl:2:6", "v.cdl:2:6"]  # EOF: the last token


def test_tokenize_makes_no_object_per_token():
    text = 'cell tX a { b = "m"; c = 0x1F; d = e.f; };\n' * 500
    gc.disable()
    try:
        before = len(gc.get_objects())
        tokens, diags = tokenize(text)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(tokens) == 10_000 and diags == []
    assert grown <= 10


# One cell in each shape the benchmark workloads declare in bulk: an
# app_16k consumer and provider, an rtos_tasks task, an api_regen server.
BENCHMARK_CELLS = [
    '[generate(RustGenPlugin, "lib")]\ncell tConsumer0007 Cons0007x03 {\n'
    '    cProvide = Prov11.eProvide;\n    tag = C_EXP("K0badf00d_$cell$");\n};',
    '[generate(RustGenPlugin, "lib")]\ncell tProvider Prov04 {\n    level = 512;\n};',
    '[generate(ItronrsGenPlugin, "lib")]\ncell tTask3 Task3_0042 {\n    id = 1234;\n'
    '    attribute = C_EXP("TA_ACT");\n    priority = C_EXP("PRI_7");\n'
    '    stackSize = C_EXP("STK_1024");\n};',
    '[generate(RustGenPlugin, "lib")]\ncell tServer017 Server017 {\n};',
]


@pytest.mark.parametrize("decl", BENCHMARK_CELLS)
def test_benchmark_cell_shapes_are_one_token(decl):
    tokens, diags = tokenize("\n" + decl + "\n", "w.cdl")
    assert diags == []
    assert tokens.tags == [CELL, EOF]
    assert tokens.texts == [decl] and tokens.offsets[0] == 1
    assert len(parse_unit(decl).unit.cells) == 1


# The signature shape of each benchmark workload: an api_regen signature
# (cut to two functions), app_16k's sProvide and rtos_tasks' sTask.
BENCHMARK_SIGNATURES = [
    "signature sApi017 {\n"
    "    int32_t op00_get( [out] uint8_t* p0, [in] int32_t p1, [in] uint16_t* p2, "
    "[out] int64_t* p3 );\n"
    "    void op01_poll( [in] double p0, [in] float* p1, [out] int32_t* p2, [in] uint8_t p3 );\n"
    "};",
    "signature sProvide {\n    int32_t get( [in] int32_t key, [out] int32_t* value );\n"
    "    void reset( void );\n};",
    "signature sTask {\n    void wakeup( void );\n    void activate( [in] int32_t code );\n};",
]


@pytest.mark.parametrize("decl", BENCHMARK_SIGNATURES)
def test_benchmark_signature_shapes_are_one_token(decl):
    tokens, diags = tokenize("\n" + decl + "\n", "w.cdl")
    assert diags == []
    assert tokens.tags == [SIGNATURE, EOF]
    assert tokens.texts == [decl] and tokens.offsets[0] == 1
    assert len(parse_unit(decl).unit.signatures) == 1


@pytest.mark.parametrize("name", ["sample.cdl", "kernel_rs.cdl"])
def test_golden_signatures_are_one_token_each(name):
    tokens, _ = tokenize(golden(name), name)
    assert tokens.tags.count(SIGNATURE) == 2
    assert "signature" not in tokens.tags


def test_scanner_patterns_compile_at_first_use():
    # a process that never scans, such as bindgen-lite, compiles none of them
    code = ("import tecsrust.cli\n"
            "from tecsrust import frontend\n"
            "assert frontend._compiled.cache_info().currsize == 0\n"
            "frontend.tokenize('cell tT c {};')\n"
            "assert frontend._compiled.cache_info().currsize == 3  # _TOKEN, _CELL_HEAD, _MEMBER\n")
    src = str(Path(tecsrust.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=src))


def test_tokenize_c_exp_call():
    tokens, diags = tokenize('C_EXP("TSKID_$id$")')
    assert diags == []
    assert tags_and_texts(tokens) == [
        ("C_EXP", "C_EXP"), ("(", "("), ("string", "TSKID_$id$"), (")", ")")]


def test_tokenize_skips_comments():
    tokens, _ = tokenize("// line\ncell /* block\nstill */ tX")
    assert tags_and_texts(tokens) == [("cell", "cell"), ("identifier", "tX")]


def test_unterminated_string_is_located():
    _, diags = tokenize('attr\n  "oops')
    assert [d.code for d in diags] == ["unterminated-string"]
    assert (diags[0].location.line, diags[0].location.column) == (2, 3)


def test_unterminated_comment_is_an_error():
    _, diags = tokenize("/* never closed")
    assert [d.code for d in diags] == ["unterminated-comment"]


def test_parse_signature_figure():
    unit = parse_unit(SIG_TEXT, "sig.cdl").unit
    sig = unit.signatures[0]
    assert sig.name == "sSensor"
    assert [f.name for f in sig.functions] == [
        "set_device_ref", "get_distance", "light_on", "light_set", "light_off"]
    light_set = sig.functions[3]
    assert len(light_set.params) == 4
    assert all(p.specifier is ParamSpecifier.IN and p.c_type == "int32_t"
               for p in light_set.params)
    distance = sig.functions[1].params[0]
    assert distance.specifier is ParamSpecifier.OUT
    assert distance.pointer_depth == 1


def test_parse_cell_description(sample_text):
    unit = parse_unit(sample_text, "sample.cdl").unit
    sensor = next(c for c in unit.cells if c.name == "Sensor")
    assert sensor.celltype_name == "tSensor"
    binding = sensor.binding_for("cPowerdown")
    assert (binding.target_cell_name, binding.target_entry_port_name) == \
        ("Powerdown", "ePowerdown2")
    port_init = sensor.init_for("port")
    assert port_init.kind is InitKind.C_EXP
    assert port_init.text == "pbio_port_id_t::PBIO_PORT_ID_B"
    assert sensor.generate_directive.plugin_name == "RustGenPlugin"


def test_parse_celltype_description(sample_text):
    unit = parse_unit(sample_text, "sample.cdl").unit
    ct = next(c for c in unit.celltypes if c.name == "tSensor")
    assert [p.port_name for p in ct.call_ports] == ["cPowerdown"]
    assert [p.port_name for p in ct.entry_ports] == ["eSensor"]
    assert ct.attrs[0].name == "port"
    assert ct.vars[0].type_text == "Option_Ref_a_mut__pup_device_t__"


def test_missing_binding_target_is_rejected():
    result = parse_unit("cell tX Y { cP = ; };", "bad.cdl")
    assert result.unit is None
    assert any(d.code == "expected-binding-target" for d in result.diagnostics)


def test_unknown_specifier_is_rejected():
    result = parse_unit("signature sX { void f( [inout] int32_t x ); };")
    assert result.unit is None
    assert any(d.code == "unknown-specifier" for d in result.diagnostics)


def test_recovery_reports_multiple_errors():
    text = "signature sA { void ; };\nsignature sB { void ; };"
    result = parse_unit(text)
    errors = [d for d in result.diagnostics if d.severity is Severity.ERROR]
    assert len(errors) == 2
    assert {d.location.line for d in errors} == {1, 2}


@pytest.mark.parametrize("text, message, column", [
    ("celltype tX {", "expected celltype member, found end of input", 13),
    ('[generate(RustGenPlugin, "x")]',
     "expected 'signature', 'celltype', or 'cell', found end of input", 30),
], ids=["celltype", "directive"])
def test_truncated_input_is_a_located_error(text, message, column):
    result = parse_unit(text, "cut.cdl")
    assert result.unit is None
    assert [(d.code, d.message, str(d.location)) for d in result.diagnostics] == [
        ("unexpected-eof", message, f"cut.cdl:1:{column}")]


def test_diagnostic_location_points_at_lexeme():
    result = parse_unit("signature sX {\n    void f( [bad] int32_t x );\n};")
    diag = result.diagnostics[0]
    assert diag.location.line == 2
    assert diag.location.column == 14


def test_render_empty_unit():
    assert render_unit(CdlUnit()) == ""


def test_render_round_trips_the_sample(sample_text):
    unit = parse_unit(sample_text, "sample.cdl").unit
    rendered = render_unit(unit)
    assert parse_unit(rendered, "rendered.cdl").unit == unit


def test_render_round_trips_factory_blocks(kernel_text):
    unit = parse_unit(kernel_text, "kernel_rs.cdl").unit
    rendered = render_unit(unit)
    assert parse_unit(rendered, "rendered.cdl").unit == unit


def test_parse_is_deterministic(sample_text):
    a = parse_unit(sample_text, "x.cdl")
    b = parse_unit(sample_text, "x.cdl")
    assert a.unit == b.unit
    assert a.diagnostics == b.diagnostics


@settings(max_examples=60, deadline=None)
@given(cdl_units())
def test_round_trip_property(unit):
    reparsed = parse_unit(render_unit(unit), "gen.cdl").unit
    assert reparsed.source_name != unit.source_name
    assert reparsed == unit and hash(reparsed) == hash(unit)


# Texts with empty lines, '\r\n' endings and no trailing newline.
_texts = st.lists(st.text("ab \t\r", max_size=6), max_size=8).flatmap(
    lambda lines: st.tuples(st.just(lines), st.sampled_from(["\n", "\r\n"]), st.booleans())
).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] and t[0] else ""))


@settings(max_examples=200, deadline=None)
@given(_texts, st.data())
def test_locate_matches_a_line_count(text, data):
    lines = LineIndex(text, "law.cdl")
    # the first and last characters, each newline, one past the end, and the
    # tokenizer's EOF sentinel (the last token's offset)
    offsets = {0, max(len(text) - 1, 0), len(text), tokenize(text)[0].offsets[-1]}
    offsets.update(i for i, c in enumerate(text) if c == "\n")
    offsets.add(data.draw(st.integers(0, len(text))))
    for o in sorted(offsets):
        triple = ("law.cdl", text.count("\n", 0, o) + 1, o - text.rfind("\n", 0, o))
        loc, eager = lines.locate(o), SourceLoc(*triple)
        assert (loc.file, loc.line, loc.column) == triple
        assert loc == eager and hash(loc) == hash(eager)
        assert (str(loc), repr(loc)) == (str(eager), repr(eager))


def test_source_loc_is_read_only_and_prints_its_default():
    loc = tokenize("cell", "r.cdl")[0].lines.locate(0)
    for target in (loc, SourceLoc()):
        with pytest.raises(AttributeError):
            target.line = 3
    assert str(SourceLoc()) == "<unknown>:0:0"
    assert repr(loc) == "SourceLoc(file='r.cdl', line=1, column=1)"


@pytest.fixture
def where_calls(monkeypatch):
    """The offsets `LineIndex.where` resolves while the test runs."""
    calls, where = [], LineIndex.where
    monkeypatch.setattr(LineIndex, "where", lambda self, o: calls.append(o) or where(self, o))
    return calls


def test_clean_build_resolves_no_location(where_calls):
    inputs = [[(name, golden(name))] for name in ("sample.cdl", "kernel_rs.cdl")]
    inputs += [list(workloads.build(name, 1, scale=0.02).sources.items())
               for name in ("app_16k", "api_regen")]
    for sources in inputs:
        for name, text in sources:
            result = parse_unit(text, name)
            assert result.unit is not None and result.diagnostics == []
        files, _, _, diags = generate(sources)
        assert files and diags == []
    assert where_calls == []


def test_clean_build_makes_no_location(monkeypatch):
    # every node keeps an offset, and a clean build reads no location, so it makes none
    made, at = [], SourceLoc.at
    monkeypatch.setattr(SourceLoc, "at", classmethod(lambda cls, *a: made.append(a) or at(*a)))
    inputs = [[(name, golden(name))] for name in ("sample.cdl", "kernel_rs.cdl")]
    inputs += [list(workloads.build(name, 1, scale=0.02).sources.items())
               for name in ("app_16k", "rtos_tasks", "api_regen")]
    for sources in inputs:
        files, _, _, diags = generate(sources)
        assert files and diags == []
    assert made == []


def test_clean_signature_makes_no_location(monkeypatch):
    # the signature, its functions and their parameters keep an offset, located when read
    made, at = [], SourceLoc.at
    monkeypatch.setattr(SourceLoc, "at", classmethod(lambda cls, *a: made.append(a) or at(*a)))
    params = "[in] int32_t a, [out] uint8_t* b, [in] T c"
    text = "signature sS {\n" + "".join(f"  void f{i}( {params} );\n" for i in range(4)) + "};"
    result = parse_unit(text, "s.cdl")
    assert result.diagnostics == []
    assert [len(f.params) for f in result.unit.signatures[0].functions] == [3] * 4
    assert made == []
    sig = result.unit.signatures[0]
    assert [n.location for n in (sig, sig.functions[1])] == [
        SourceLoc("s.cdl", 1, 1), SourceLoc("s.cdl", 3, 8)]


@pytest.mark.parametrize("comment", ["", "/* plain tokens */ "], ids=["fast-path", "token-path"])
def test_clean_cell_makes_no_location(monkeypatch, comment):
    # the cell, its directive, bindings and initializers keep an offset, located when read
    text = ('[generate(RustGenPlugin, "lib")]\ncell tT T {\n  cA = U.eA; cB = V.eB;\n'
            f'  {comment}x = 1; y = C_EXP("Y");\n}};\n')
    assert (CELL in tokenize(text)[0].tags) == (not comment)  # a comment stops the fast path
    made, at = [], SourceLoc.at
    monkeypatch.setattr(SourceLoc, "at", classmethod(lambda cls, *a: made.append(a) or at(*a)))
    result = parse_unit(text, "c.cdl")
    assert result.diagnostics == [] and validate_unit(result.unit) == []
    assert made == []
    cell = result.unit.cells[0]
    nodes = (cell.generate_directive, cell) + cell.bindings + cell.attr_inits
    assert [n.location for n in nodes] == [
        SourceLoc("c.cdl", text.count("\n", 0, o) + 1, o - text.rfind("\n", 0, o))
        for o in (text.index(key) for key in ("[", "cell", "cA =", "cB =", "x =", "y ="))]


def test_clean_build_builds_no_line_table():
    # the line starts are found at the first location read, which a clean build never makes
    for name in ("sample.cdl", "kernel_rs.cdl", *workloads.WORKLOADS):
        sources = ([(name, golden(name))] if name.endswith(".cdl")
                   else list(workloads.build(name, 1, scale=0.02).sources.items()))
        files, _, model, diags = generate(sources)
        assert files and diags == []
        indexes = {f.lines for sig in model.signature_index.values() for f in sig.functions}
        indexes |= {m.lines for rc in model.cells for m in rc.cell.bindings + rc.cell.attr_inits}
        assert indexes and all(lines._starts is None for lines in indexes)
    lines = indexes.pop()
    assert str(lines.locate(0)).endswith(":1:1") and lines._starts is not None


def test_diagnostics_resolve_their_locations_when_formatted(where_calls):
    text = ("signature sA { void ; };\ncelltype tX {\n    [bad] call sA cA;\n};\n"
            "cell tX X { cA = ; };\n")
    diags = parse_unit(text, "bad.cdl").diagnostics
    assert where_calls == []
    assert [str(d) for d in diags] == [
        "bad.cdl:1:21: error[unexpected-token]: expected function name, found ';'",
        "bad.cdl:3:6: error[unknown-modifier]: unknown modifier '[bad]'",
        "bad.cdl:5:18: error[expected-binding-target]: "
        "expected binding target or initializer after 'cA ='"]
    assert len(where_calls) == len(diags)  # one bisect per printed location
