import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from cdl_renderer import render_unit
from conftest import GOLDENS, golden
from strategies import cdl_units_with_gaps, non_generating_bindings
import tecsrust
from tecsrust import naming
from tecsrust.cli import (
    EXIT_DIAGNOSTICS, EXIT_OK, EXIT_USAGE, emit_diagram, generate, report, run, write_files,
)
from tecsrust.diagnostics import Severity
from tecsrust.emit_core import GeneratedFile, WritePolicy
from tecsrust.frontend import KEYWORDS, parse_unit
from tecsrust.linker import resolve
from test_parser_differential import mutants

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SAMPLE = str(GOLDENS / "sample.cdl")

EXPECTED_SAMPLE_FILES = {
    "s_sensor.rs", "s_powerdown.rs", "t_sensor.rs", "t_powerdown.rs",
    "t_sensor_impl.rs", "t_powerdown_impl.rs",
}


def test_run_sample(tmp_path, capsys):
    assert run([SAMPLE, "--out", str(tmp_path / "gen")]) == EXIT_OK
    produced = {p.name for p in (tmp_path / "gen").iterdir()}
    assert produced == EXPECTED_SAMPLE_FILES


def test_no_inputs_is_a_usage_error(capsys):
    assert run([]) == EXIT_USAGE


def test_missing_input_file(tmp_path):
    assert run([str(tmp_path / "nope.cdl")]) == EXIT_USAGE


def test_skeleton_preserved_on_rerun(tmp_path, capsys):
    out = tmp_path / "gen"
    assert run([SAMPLE, "--out", str(out)]) == EXIT_OK
    impl = out / "t_sensor_impl.rs"
    edited = impl.read_text().replace(
        "let cell_ref = self.cell.get_cell_ref();",
        "let cell_ref = self.cell.get_cell_ref(); // my code", 1)
    impl.write_text(edited)
    contract = out / "s_sensor.rs"
    contract.write_text("clobber me\n")
    past = 1_000_000_000_000_000_000  # ns: September 2001
    for path in out.iterdir():
        os.utime(path, ns=(past, past))
    capsys.readouterr()
    assert run([SAMPLE, "--out", str(out)]) == EXIT_OK
    # unchanged outputs still count as written; only the clobbered contract is reopened
    assert capsys.readouterr().out == (
        f"generated 6 files (4 written, 72 generated lines, 33 stub lines) under {out}\n")
    assert impl.read_text() == edited
    assert contract.read_text() == golden("s_sensor.rs")
    assert {p.name for p in out.iterdir() if p.stat().st_mtime_ns != past} == {"s_sensor.rs"}


@pytest.mark.parametrize("rerun", [False, True], ids=["fresh", "rerun"])
def test_a_directory_at_an_output_path_is_a_usage_error(tmp_path, capsys, rerun):
    out = tmp_path / "gen"
    if rerun:
        assert run([SAMPLE, "--out", str(out)]) == EXIT_OK
        (out / "s_sensor.rs").unlink()
    (out / "s_sensor.rs").mkdir(parents=True)
    capsys.readouterr()
    assert run([SAMPLE, "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", f"error: [Errno 21] Is a directory: '{out / 's_sensor.rs'}'\n")


def test_errors_write_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.cdl"
    bad.write_text("""
signature sA { void f( void ); };
[generate(RustGenPlugin, "lib")]
celltype tC { call sA cA; };
[generate(RustGenPlugin, "lib")]
cell tC C {};
""")
    out = tmp_path / "gen"
    assert run([str(bad), "--out", str(out)]) == EXIT_DIAGNOSTICS
    assert not out.exists()
    err = capsys.readouterr().err
    assert "error[unbound-call-port]" in err
    assert "bad.cdl" in err


def test_diagnostic_line_format(tmp_path, capsys):
    bad = tmp_path / "bad.cdl"
    bad.write_text("signature sX { void f( [out] int32_t x ); };\n")
    assert run([str(bad), "--out", str(tmp_path / "gen")]) == EXIT_DIAGNOSTICS
    line = capsys.readouterr().err.splitlines()[0]
    path, lineno, col, rest = line.split(":", 3)
    assert path.endswith("bad.cdl")
    assert lineno.isdigit() and col.isdigit()
    assert rest.strip().startswith("error[")


@pytest.mark.parametrize("text", [
    """
signature s { void f( void ); };
[generate(RustGenPlugin, "lib")]
celltype tA { entry s eA; };
""", """
signature sA { void f( void ); };
[generate(RustGenPlugin, "lib")]
celltype t { entry sA eA; };
cell t T1 {};
"""], ids=["signature", "celltype"])
def test_one_character_name_is_a_located_error(tmp_path, capsys, text):
    src = tmp_path / "short.cdl"
    src.write_text(text)
    out = tmp_path / "gen"
    assert run([str(src), "--out", str(out)]) == EXIT_DIAGNOSTICS
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [l for l in err.splitlines() if "error[bad-name]" in l]
    assert len(lines) == 1
    path, lineno, col, _ = lines[0].split(":", 3)
    assert path.endswith("short.cdl") and int(lineno) > 0 and int(col) > 0


def test_all_underscore_name_is_a_located_error(tmp_path, capsys):
    src = tmp_path / "under.cdl"
    src.write_text("""signature __ { void f( void ); };
[generate(RustGenPlugin, "lib")]
celltype tA { entry __ eA; };
""")
    out = tmp_path / "gen"
    assert run([str(src), "--out", str(out)]) == EXIT_DIAGNOSTICS
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"{src}:1:1: error[bad-name]: signature name '__' does not map to a Rust identifier"]


FACTORY_UNIT = """signature sP {{ void f( void ); }};
[generate(RustGenPlugin, "lib")]
celltype tP {{
    entry sP eP;
    attr {{ [omit] char_t dst = C_EXP("{dst}"); }};
    factory {{ write("{target}", "LINE_$cell$"); }};
}};
cell tP P1 {{}};
"""


@pytest.mark.parametrize("target, dst, rendered", [
    ("{tmp}/abs/x.cfg", "d", "{tmp}/abs/x.cfg"),
    ("../x.cfg", "d", "../x.cfg"),
    ("a/../../x.cfg", "d", "a/../../x.cfg"),
    ("$dst$.cfg", "../via_attr", "../via_attr.cfg"),
    ("$dst$", "", ""),
    ("a\0b.cfg", "d", "a\\x00b.cfg"),
    ("$dst$.cfg", "a\0b", "a\\x00b.cfg"),
    ("a\\nb.cfg", "d", "a\\nb.cfg"),
    ("$dst$.cfg", "a\\tb", "a\\tb.cfg"),
    ("a\x01b\x7f.cfg", "d", "a\\x01b\\x7f.cfg"),
], ids=["absolute", "parent", "nested-parent", "from-attr", "empty", "nul", "nul-from-attr",
        "newline-escape", "tab-from-attr", "raw-c0-and-del"])
def test_factory_target_outside_out_is_a_located_error(tmp_path, capsys, target, dst,
                                                       rendered):
    src = tmp_path / "w.cdl"
    src.write_text(FACTORY_UNIT.format(target=target.format(tmp=tmp_path), dst=dst))
    assert run([str(src), "--out", str(tmp_path / "gen" / "sub")]) == EXIT_DIAGNOSTICS
    assert list(tmp_path.rglob("*")) == [src]
    assert capsys.readouterr().err.splitlines() == [
        f"{src}:6:15: error[write-outside-out]: factory target "
        f"'{rendered.format(tmp=tmp_path)}' is not a file inside --out"]


def test_nul_in_a_celltype_factory_target_writes_nothing(tmp_path, capsys):
    # open() rejects the name, so it must be refused before the core files are written
    src = tmp_path / "w.cdl"
    src.write_text(FACTORY_UNIT.format(target="x.cfg", dst="d").replace(
        'factory { write("x.cfg", "LINE_$cell$"); };',
        'FACTORY { write("a\0b.cfg", "x"); };'))
    assert run([str(src), "--out", str(tmp_path / "gen")]) == EXIT_DIAGNOSTICS
    assert list(tmp_path.rglob("*")) == [src]
    assert capsys.readouterr().err.splitlines() == [
        f"{src}:6:15: error[write-outside-out]: factory target 'a\\x00b.cfg' "
        "is not a file inside --out"]


def test_control_characters_in_celltype_factory_targets_write_nothing(tmp_path, capsys):
    # each refused at its write and shown escaped, so each diagnostic stays one line
    src = tmp_path / "w.cdl"
    src.write_text(FACTORY_UNIT.format(target="x.cfg", dst="d").replace(
        'factory { write("x.cfg", "LINE_$cell$"); };',
        'FACTORY { write("a\\nb.cfg", "x"); write("c\\td.cfg", "y"); '
        'write("e\x1bf.cfg", "z"); };'))
    assert run([str(src), "--out", str(tmp_path / "gen")]) == EXIT_DIAGNOSTICS
    assert list(tmp_path.rglob("*")) == [src]
    assert capsys.readouterr().err.splitlines() == [
        f"{src}:6:{col}: error[write-outside-out]: factory target '{shown}' "
        "is not a file inside --out"
        for col, shown in ((15, "a\\nb.cfg"), (39, "c\\td.cfg"), (63, "e\\x1bf.cfg"))]


def test_factory_target_in_a_subdirectory_is_written(tmp_path):
    src = tmp_path / "w.cdl"
    src.write_text(FACTORY_UNIT.format(target="sub/x.cfg", dst="d"))
    out = tmp_path / "gen" / "sub"
    assert run([str(src), "--out", str(out)]) == EXIT_OK
    assert (out / "sub" / "x.cfg").read_text() == "LINE_P1\n"


def test_two_spellings_of_a_factory_target_are_one_file(tmp_path, capsys):
    src = tmp_path / "w.cdl"
    src.write_text(FACTORY_UNIT.format(target="x.cfg", dst="d").replace(
        'write("x.cfg", "LINE_$cell$");',
        'write("x.cfg", "A_$cell$"); write("./x.cfg", "B_$cell$");').replace(
        "cell tP P1 {};", "cell tP P1 {};\ncell tP P2 {};"))
    out = tmp_path / "gen"
    assert run([str(src), "--out", str(out), "--report"]) == EXIT_OK
    assert (out / "x.cfg").read_text() == "A_P1\nB_P1\nA_P2\nB_P2\n"
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert rows.count("x.cfg") == 1 and not any("./" in row for row in rows)


@pytest.mark.parametrize("target", ["t_p_impl.rs", "t_p.rs", "./s_p.rs"])
def test_factory_target_may_not_name_a_core_file(tmp_path, capsys, target):
    src = tmp_path / "w.cdl"
    src.write_text(FACTORY_UNIT.format(target="x.cfg", dst="d"))
    out = tmp_path / "gen"
    assert run([str(src), "--out", str(out)]) == EXIT_OK
    impl = out / "t_p_impl.rs"
    impl.write_text(impl.read_text() + "// hand edit\n")
    before = {p: p.read_bytes() for p in out.rglob("*")}
    capsys.readouterr()
    src.write_text(FACTORY_UNIT.format(target=target, dst="d"))
    assert run([str(src), "--out", str(out)]) == EXIT_DIAGNOSTICS
    assert {p: p.read_bytes() for p in out.rglob("*")} == before
    assert capsys.readouterr().err.splitlines() == [
        f"{src}:6:15: error[path-collision]: factory target '{target}' "
        "names a file the core emitters write"]


@pytest.mark.parametrize("writes, reported, both", [
    ('write("t_p.rs/x.cfg", "A");', "t_p.rs/x.cfg", "t_p.rs"),
    ('write("cfg", "A"); write("cfg/x.cfg", "B");', "cfg/x.cfg", "cfg"),
    ('write("cfg/x.cfg", "A"); write("./cfg", "B");', "./cfg", "cfg"),
], ids=["through-a-core-file", "through-a-target", "over-a-directory"])
def test_factory_target_may_not_use_a_file_as_a_directory(tmp_path, capsys, writes, reported,
                                                         both):
    src = tmp_path / "w.cdl"
    src.write_text(FACTORY_UNIT.format(target="x.cfg", dst="d"))
    out = tmp_path / "gen"
    assert run([str(src), "--out", str(out)]) == EXIT_OK
    before = {p: p.read_bytes() for p in out.rglob("*")}
    capsys.readouterr()
    src.write_text(FACTORY_UNIT.format(target="x.cfg", dst="d").replace(
        'write("x.cfg", "LINE_$cell$");', writes).replace("cell tP P1 {};", "cell tP P1 {};\n"
                                                          "cell tP P2 {};"))
    assert run([str(src), "--out", str(out)]) == EXIT_DIAGNOSTICS
    assert {p: p.read_bytes() for p in out.rglob("*")} == before
    column = 15 + writes.index(f'write("{reported}"')
    assert capsys.readouterr().err.splitlines() == [
        f"{src}:6:{column}: error[path-collision]: factory target '{reported}' "
        f"uses '{both}' as a file and as a directory"]


@settings(max_examples=40, deadline=None)
@given(cdl_units_with_gaps())
def test_generate_is_total_on_units_with_gaps(unit):
    files, plan, model, diags = generate([("gaps.cdl", render_unit(unit))])
    errors = [d for d in diags if d.severity is Severity.ERROR]
    # brute force: one error per (cell, visible attr) and per var left without a value
    directed = {ct.name for ct in unit.celltypes if ct.generate_directive}
    by_name = {ct.name: ct for ct in unit.celltypes}
    cells = [c for c in unit.cells if c.celltype_name in directed]
    expected = sum(1 for c in cells for a in by_name[c.celltype_name].attrs
                   if not a.omit and a.default is None and c.init_for(a.name) is None)
    expected += sum(1 for name in {c.celltype_name for c in cells}
                    for v in by_name[name].vars if v.default is None)
    expected += len(non_generating_bindings(unit))
    assert len(errors) == expected
    if errors:
        assert files == []
        assert all(d.location.line > 0 for d in errors)
        assert {d.code for d in errors} <= {"uninitialized-attribute",
                                            "uninitialized-variable", "non-generating-target"}
    else:
        assert {naming.file_name("definition", ct.name)
                for ct in plan.definition_cts} <= {f.path for f in files}


def test_diagram_two_nodes_one_edge(sample_text):
    model, _ = resolve([parse_unit(sample_text, "sample.cdl").unit])
    dot = emit_diagram(model)
    assert dot.count("[label=") == 3  # 2 node labels + 1 edge label
    assert '"Sensor" [label="tSensor\\nSensor"];' in dot
    assert '"Sensor" -> "Powerdown" [label="sPowerdown"];' in dot


def test_diagram_empty_model():
    model, _ = resolve([])
    assert emit_diagram(model) == "digraph components {\n}\n"


def test_diagram_chain_is_deterministic():
    text = """
    signature sA { void f( void ); };
    celltype tEnd { entry sA eA; };
    celltype tMid { call sA cA; entry sA eA; };
    celltype tTop { call sA cA; };
    cell tEnd End {};
    cell tMid Mid { cA = End.eA; };
    cell tTop Top { cA = Mid.eA; };
    """
    unit = parse_unit(text, "chain.cdl").unit
    dots = [emit_diagram(resolve([unit])[0]) for _ in range(2)]
    assert dots[0] == dots[1]
    assert dots[0].count("->") == 2
    assert dots[0].count('[label="t') == 3


def test_diagram_flag_writes_dot(tmp_path):
    dot_path = tmp_path / "components.dot"
    assert run([SAMPLE, "--out", str(tmp_path / "gen"),
                "--diagram", str(dot_path)]) == EXIT_OK
    assert dot_path.read_text().startswith("digraph components {")


@pytest.mark.parametrize("diagram", ["gen/t_sensor_impl.rs", "gen/sub/../t_sensor.rs",
                                     "./gen/s_sensor.rs"])
def test_diagram_may_not_name_a_generated_file(tmp_path, monkeypatch, capsys, diagram):
    monkeypatch.chdir(tmp_path)
    assert run([SAMPLE, "--out", "gen"]) == EXIT_OK
    impl = tmp_path / "gen" / "t_sensor_impl.rs"
    impl.write_text(impl.read_text() + "// hand edit\n")
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert run([SAMPLE, "--out", "gen", "--diagram", diagram]) == EXIT_USAGE
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    assert capsys.readouterr().err.splitlines() == [
        f"error: --diagram {diagram} names a generated file"]


FACTORY_SUBDIR = """signature sP { void f( void ); };
[generate(RustGenPlugin, "lib")]
celltype tX { entry sP eP; FACTORY { write("cfg/x.cfg", "X"); }; };
cell tX X1 {};
"""


@pytest.mark.parametrize("text, out, diagram", [
    (FACTORY_SUBDIR, "gen", "gen"), (FACTORY_SUBDIR, "gen", "./gen/sub/.."),
    (FACTORY_SUBDIR, "gen/sub", "gen"), (FACTORY_SUBDIR, "gen", "."),
    (FACTORY_SUBDIR, "gen", "gen/cfg"), ("", "gen", "gen"),
], ids=["out", "out-spelled-otherwise", "above-out", "cwd-above-out", "factory-directory",
        "out-of-a-build-with-no-outputs"])
def test_diagram_may_not_name_an_output_directory(tmp_path, monkeypatch, capsys, text, out,
                                                  diagram):
    # refused before any write: no diagram, no tree
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u.cdl").write_text(text)
    assert run(["u.cdl", "--out", out, "--diagram", diagram]) == EXIT_USAGE
    assert [p.name for p in tmp_path.iterdir()] == ["u.cdl"]
    assert capsys.readouterr() == (
        "", f"error: --diagram {diagram} names a directory outputs are written into\n")


@pytest.mark.parametrize("link, diagram", [
    ("../x.rs", "gen/t_sensor_impl.rs"), ("../x.rs", "x.rs"), ("../x.rs", "./x.rs"),
    ("x.rs", "gen/x.rs"), ("impl/t.rs", "gen/impl/t.rs"), ("impl/t.rs", "gen/impl/../impl/t.rs")])
def test_diagram_may_not_name_a_linked_output(tmp_path, monkeypatch, capsys, link, diagram):
    # a kept skeleton may be a link to a hand-edited file, inside --out or outside it:
    # neither path may take the diagram
    monkeypatch.chdir(tmp_path)
    edit = Path(os.path.normpath(Path("gen", link)))
    edit.parent.mkdir(parents=True, exist_ok=True)
    Path("gen").mkdir(exist_ok=True)
    edit.write_text("// hand edit\n")
    Path("gen/t_sensor_impl.rs").symlink_to(link)
    before = sorted(Path().rglob("*"))
    assert run([SAMPLE, "--out", "gen", "--diagram", diagram]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: --diagram {diagram} names a generated file\n"
    assert edit.read_text() == "// hand edit\n"
    assert Path("gen/t_sensor_impl.rs").is_symlink() and sorted(Path().rglob("*")) == before


@pytest.mark.parametrize("chained", [False, True])
def test_diagram_may_not_name_a_kept_skeleton_link_target(tmp_path, monkeypatch, capsys, chained):
    # dangling, or through a second link: a diagram at x.rs would become the skeleton's file
    monkeypatch.chdir(tmp_path)
    Path("gen").mkdir()
    Path("gen/t_sensor_impl.rs").symlink_to("../x.rs")
    if chained:
        Path("y.rs").write_text("// hand edit\n")
        Path("x.rs").symlink_to("y.rs")
    before = sorted(Path().rglob("*"))
    assert run([SAMPLE, "--out", "gen", "--diagram", "x.rs"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --diagram x.rs names a generated file\n"
    assert os.path.lexists("x.rs") is chained and sorted(Path().rglob("*")) == before
    assert not chained or Path("x.rs").read_text() == "// hand edit\n"


def test_diagram_beside_a_kept_skeleton_link_loop_is_written(tmp_path, monkeypatch):
    # the link check follows no loop to an error: the skeleton is kept, as without --diagram
    monkeypatch.chdir(tmp_path)
    Path("gen").mkdir()
    Path("gen/t_sensor_impl.rs").symlink_to("t_sensor_impl.rs")
    assert run([SAMPLE, "--out", "gen", "--diagram", "x.dot"]) == EXIT_OK
    assert Path("x.dot").read_text().startswith("digraph")
    assert os.readlink("gen/t_sensor_impl.rs") == "t_sensor_impl.rs"


def test_diagram_check_resolves_only_out_and_the_diagram(tmp_path, monkeypatch):
    # the diagram is compared with the outputs' relative paths: no system call per output
    cdl, _ = workloads.build("app_16k", 1, scale=0.05).write_inputs(tmp_path / "in")
    resolved = []
    resolve = Path.resolve

    def counting(path, *args, **kwargs):
        resolved.append(path)
        return resolve(path, *args, **kwargs)

    monkeypatch.setattr(Path, "resolve", counting)
    out = tmp_path / "gen"
    assert run([*map(str, cdl), "--out", str(out), "--diagram", str(out / "d.dot")]) == EXIT_OK
    assert len(list(out.iterdir())) == 85 and len(resolved) <= 2, resolved[:3]


def test_diagram_inside_out_is_written(tmp_path):
    out = tmp_path / "gen"
    assert run([SAMPLE, "--out", str(out), "--diagram", str(out / "components.dot")]) == EXIT_OK
    assert (out / "components.dot").read_text().startswith("digraph components {")
    assert EXPECTED_SAMPLE_FILES <= {p.name for p in out.iterdir()}


def test_diagram_in_a_new_directory_inside_out_is_written(tmp_path):
    # its directory is made, as an output's directory is
    out = tmp_path / "gen"
    assert run([SAMPLE, "--out", str(out), "--diagram", str(out / "docs" / "d.dot")]) == EXIT_OK
    assert (out / "docs" / "d.dot").read_text().startswith("digraph components {")


def test_diagram_in_a_missing_directory_writes_no_tree(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run([SAMPLE, "--out", "g2", "--diagram", "nodir/d.dot"]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: [Errno 2] No such file or directory: 'nodir/d.dot'\n")
    assert list(tmp_path.iterdir()) == []


def test_an_unchanged_diagram_is_left_alone(tmp_path):
    dot = tmp_path / "components.dot"
    argv = [SAMPLE, "--out", str(tmp_path / "gen"), "--diagram", str(dot)]
    dot.write_text("stale\n")
    assert run(argv) == EXIT_OK
    text = dot.read_text()
    assert text.startswith("digraph components {")
    past = 1_000_000_000_000_000_000  # ns: September 2001
    os.utime(dot, ns=(past, past))
    assert run(argv) == EXIT_OK
    assert dot.stat().st_mtime_ns == past and dot.read_text() == text


def test_report_totals(sample_text):
    files, plan, _, _ = generate([("sample.cdl", sample_text)])
    table = report(plan)
    rep = plan.report
    assert rep.auto_total + rep.skeleton_total == \
        sum(f.content.count("\n") for f in files)
    assert f"{rep.auto_total:>5}" in table
    for f in files:
        assert f.path in table


def test_report_counts_scale_with_methods(sample_text):
    base_files, _, _, _ = generate([("s.cdl", sample_text)])
    grown = sample_text.replace(
        "void light_off( void );",
        "void light_off( void );\n    void extra( void );")
    grown_files, _, _, _ = generate([("s.cdl", grown)])
    base = {f.path: f.content for f in base_files}
    new = {f.path: f.content for f in grown_files}
    # one method = one line in the contract, four lines in the skeleton stub
    assert new["s_sensor.rs"].count("\n") == base["s_sensor.rs"].count("\n") + 1
    assert new["t_sensor_impl.rs"].count("\n") == \
        base["t_sensor_impl.rs"].count("\n") + 4


def test_report_flag_prints_table(tmp_path, capsys):
    assert run([SAMPLE, "--out", str(tmp_path / "gen"), "--report"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "total auto-generated" in out
    assert "t_sensor.rs" in out


def test_bindgen_lite_subcommand(tmp_path, capsys):
    out = tmp_path / "kernel_cfg.rs"
    header = str(GOLDENS / "kernel_cfg.h")
    assert run(["bindgen-lite", header, "-o", str(out)]) == EXIT_OK
    assert out.read_text() == golden("kernel_cfg.rs")


def test_bindgen_lite_writes_a_keyword_raw_and_skips_self_with_one_located_line(tmp_path,
                                                                              capsys):
    header, out = tmp_path / "k.h", tmp_path / "k.rs"
    header.write_text("#define type 1\n#define self 2\n")
    assert run(["bindgen-lite", str(header), "-o", str(out)]) == EXIT_OK
    assert out.read_text() == "pub const r#type: i32 = 1;\n"
    assert capsys.readouterr().err.splitlines() == [
        f"{header}:2:1: warning[keyword-define]: skipped #define self: 'self' cannot name a "
        "Rust constant, even as 'r#self'"]


def test_bindgen_lite_usage_error_and_help_are_returned_codes(capsys):
    # as for the compile command: argparse's own exit is a return from `run`, not a SystemExit
    assert run(["bindgen-lite"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: tecsrust bindgen-lite")
    assert "the following arguments are required: header, -o/--output" in captured.err
    assert run(["bindgen-lite", "--help"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: tecsrust bindgen-lite")


# stdout block-buffered, as into a pipe from a shell, whatever the caller's environment
_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
        "PYTHONPATH": str(Path(tecsrust.__file__).parents[1])}
COMPILE_STAGES = {f"tecsrust.{m}"
                  for m in ("frontend", "model", "linker", "emit_core", "emit_rtos", "naming")}


def _importtime(*args: str):
    """`python -X importtime` with `args` in a process of its own: its exit code, its
    stderr but for `-X importtime` lines, and the modules it imported."""
    done = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=_ENV)
    lines = done.stderr.splitlines(keepends=True)
    imported = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    return done.returncode, "".join(l for l in lines if not l.startswith("import time:")), imported


def _bindgen_lite_process(header: Path, out: Path):
    return _importtime("-m", "tecsrust.cli", "bindgen-lite", str(header), "-o", str(out))


# what `bindgen-lite` and `import tecsrust.cli` never load: `dataclasses` brings `inspect`
NOT_AT_START = COMPILE_STAGES | {"dataclasses", "inspect"}


def test_bindgen_lite_loads_only_the_header_converter(tmp_path):
    out = tmp_path / "kernel_cfg.rs"
    code, err, imported = _bindgen_lite_process(GOLDENS / "kernel_cfg.h", out)
    assert (code, err) == (EXIT_OK, "") and out.read_text() == golden("kernel_cfg.rs")
    assert {"tecsrust.diagnostics", "tecsrust.header_const"} <= imported
    assert not imported & NOT_AT_START
    bad = tmp_path / "bad.h"
    bad.write_bytes(b"#define A 1\n#define B \xff\n")
    code, err, imported = _bindgen_lite_process(bad, tmp_path / "bad.rs")
    assert (code, err) == (EXIT_DIAGNOSTICS, f"{bad}:2:11: error[bad-encoding]: "
                                             "input is not valid UTF-8 (byte 0xff)\n")
    assert not imported & NOT_AT_START and not (tmp_path / "bad.rs").exists()


def test_importing_the_cli_loads_no_compile_stage_and_no_dataclasses():
    # the command behind perfbench's setup_s probe
    code, err, imported = _importtime("-c", "import tecsrust.cli")
    assert (code, err) == (EXIT_OK, "") and "tecsrust.cli" in imported
    assert not imported & NOT_AT_START


def test_a_compile_loads_its_stages_and_no_dataclasses(tmp_path):
    # each node and record is a plain slotted class, so a build where bytecode is not cached
    # compiles neither `dataclasses` nor the `inspect` it brings
    out = tmp_path / "gen"
    code, err, imported = _importtime("-m", "tecsrust.cli", SAMPLE, "--out", str(out))
    assert (code, err) == (EXIT_OK, "") and COMPILE_STAGES <= imported
    assert not imported & {"dataclasses", "inspect"}
    assert (out / "t_sensor.rs").read_text() == golden("t_sensor.rs")


def _cli_process(argv, prefix=("-m", "tecsrust.cli")):
    """`python -m tecsrust.cli argv` in a process of its own, stdout and stderr on pipes."""
    return subprocess.run([sys.executable, *prefix, *argv], capture_output=True, text=True,
                          env=_ENV)


def _in_process(argv, capsys):
    """`run(argv)`'s exit code, stdout and stderr; argparse's own exit counts as a return."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _tree(root: Path):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("argv, expected", [
    (["SAMPLE", "--out", "OUT"], EXIT_OK),
    (["SAMPLE", "--out", "OUT", "--report"], EXIT_OK),
    (["NON_GENERATING", "--out", "OUT"], EXIT_DIAGNOSTICS),
    (["BAD", "--out", "OUT"], EXIT_DIAGNOSTICS),
    (["MISSING", "--out", "OUT"], EXIT_USAGE),
    ([], EXIT_USAGE),
    (["--help"], EXIT_OK),
    (["bindgen-lite", "KERNEL_CFG", "-o", "OUT/kernel_cfg.rs"], EXIT_OK),
    (["bindgen-lite", "BAD", "-o", "OUT/kernel_cfg.rs"], EXIT_DIAGNOSTICS),
    (["bindgen-lite", "MISSING", "-o", "OUT/kernel_cfg.rs"], EXIT_USAGE),
    (["bindgen-lite", "KERNEL_CFG"], EXIT_USAGE),
    (["bindgen-lite", "--help"], EXIT_OK),
], ids=["generate", "report", "non-generating-target", "bad-encoding", "missing-input",
        "no-inputs", "help", "bindgen-lite", "bindgen-lite-bad-encoding",
        "bindgen-lite-missing-header", "bindgen-lite-no-output", "bindgen-lite-help"])
def test_a_cli_process_exits_with_the_code_and_text_of_run(tmp_path, capsys, argv, expected):
    # the process ends without tearing down the interpreter: nothing it prints may be lost
    (tmp_path / "u.cdl").write_text(NON_GENERATING)
    (tmp_path / "bad.in").write_bytes(b"// caf\xc3\xa9 \xff\n")
    out = tmp_path / "gen"
    names = {"SAMPLE": SAMPLE, "KERNEL_CFG": str(GOLDENS / "kernel_cfg.h"), "OUT": str(out),
             "NON_GENERATING": str(tmp_path / "u.cdl"), "BAD": str(tmp_path / "bad.in"),
             "MISSING": str(tmp_path / "nope.cdl")}
    argv = [names.get(a, a).replace("OUT/", f"{out}/") for a in argv]
    out.mkdir()  # for bindgen-lite -o
    done = _cli_process(argv)
    tree = _tree(out)
    shutil.rmtree(out)
    out.mkdir()
    assert (done.returncode, done.stdout, done.stderr) == _in_process(argv, capsys)
    assert done.returncode == expected and tree == _tree(out)
    if argv[:1] == [SAMPLE]:
        for name in ("s_sensor.rs", "t_sensor.rs", "t_sensor_impl.rs"):
            assert tree[name].decode() == golden(name)
    elif argv[:2] == ["bindgen-lite", str(GOLDENS / "kernel_cfg.h")] and expected == EXIT_OK:
        assert tree == {"kernel_cfg.rs": golden("kernel_cfg.rs").encode()}
    if expected != EXIT_OK:
        assert done.stderr and "Traceback" not in done.stderr


def test_a_profiled_build_still_prints_the_profile(tmp_path):
    # a profiler reports at a normal exit, which the CLI then takes
    out = tmp_path / "gen"
    done = _cli_process([SAMPLE, "--out", str(out)], prefix=("-m", "cProfile", "-m",
                                                               "tecsrust.cli"))
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert done.stdout.startswith(
        f"generated 6 files (6 written, 72 generated lines, 33 stub lines) under {out}\n")
    assert " function calls " in done.stdout and "Ordered by: " in done.stdout


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_report_into_a_closed_reader_fails_as_a_normal_exit_does(tmp_path, buffered):
    read, write = os.pipe()
    os.close(read)  # every write to stdout fails with EPIPE
    env = _ENV if buffered else dict(_ENV, PYTHONUNBUFFERED="1")
    try:
        done = subprocess.run([sys.executable, "-m", "tecsrust.cli", SAMPLE, "--out",
                               str(tmp_path / "gen"), "--report"], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert done.stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")
    if buffered:  # the flush at exit fails: the interpreter reports it and exits 120
        assert done.returncode == 120 and done.stderr.startswith(
            "Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    else:  # the print in run() fails
        assert done.returncode == 1 and done.stderr.startswith("Traceback")


def test_a_build_with_stdout_closed_exits_0(tmp_path):
    # sys.stdout is None: print() writes nothing, and the exit flushes nothing
    out = tmp_path / "gen"
    done = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m",
                           "tecsrust.cli", SAMPLE, "--out", str(out)],
                          stderr=subprocess.PIPE, text=True, env=_ENV)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert {p.name for p in out.iterdir()} == EXPECTED_SAMPLE_FILES


def test_bindgen_lite_leaves_an_unchanged_output_alone(tmp_path):
    # a build tool sees no change when the header's constants did not change
    out = tmp_path / "kernel_cfg.rs"
    argv = ["bindgen-lite", str(GOLDENS / "kernel_cfg.h"), "-o", str(out)]
    out.write_text("stale\n")
    assert run(argv) == EXIT_OK and out.read_text() == golden("kernel_cfg.rs")
    past = 1_000_000_000 * 10**9
    os.utime(out, ns=(past, past))
    assert run(argv) == EXIT_OK
    assert out.stat().st_mtime_ns == past and out.read_text() == golden("kernel_cfg.rs")


def test_bindgen_lite_unwritable_output_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "kernel_cfg.rs"
    out.mkdir()
    assert run(["bindgen-lite", str(GOLDENS / "kernel_cfg.h"), "-o", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: cannot write {out}: [Errno 21] Is a directory: '{out}'\n")


PAST = 1_000_000_000 * 10**9  # ns: September 2001


def _one_output(tmp_path, command):
    """The argv of a run that writes a known output, that output's path and its bytes."""
    if command == "generate":
        return ([SAMPLE, "--out", str(tmp_path / "gen")], tmp_path / "gen" / "s_sensor.rs",
                golden("s_sensor.rs").encode())
    out = tmp_path / "kernel_cfg.rs"
    return (["bindgen-lite", str(GOLDENS / "kernel_cfg.h"), "-o", str(out)], out,
            golden("kernel_cfg.rs").encode())


# the directory at an output path: test_a_directory_at_an_output_path_is_a_usage_error
# and test_bindgen_lite_unwritable_output_is_a_usage_error
@pytest.mark.parametrize("command", ["generate", "bindgen-lite"])
@pytest.mark.parametrize("on_disk", ["prefix", "longer", "same-size"])
def test_an_output_is_rewritten_unless_it_holds_exactly_the_new_bytes(tmp_path, command,
                                                                      on_disk):
    argv, path, new = _one_output(tmp_path, command)
    assert run(argv) == EXIT_OK
    path.write_bytes({"prefix": new[:-1], "longer": new + b"// hand edit\n",
                      "same-size": new[:-2] + b"?\n"}[on_disk])
    os.utime(path, ns=(PAST, PAST))
    assert run(argv) == EXIT_OK
    assert path.read_bytes() == new and path.stat().st_mtime_ns != PAST


@pytest.mark.parametrize("command", ["generate", "bindgen-lite"])
def test_a_symlink_to_an_identical_file_is_left_alone(tmp_path, command):
    argv, path, new = _one_output(tmp_path, command)
    assert run(argv) == EXIT_OK
    real = tmp_path / "real.rs"
    real.write_bytes(new)
    os.utime(real, ns=(PAST, PAST))
    path.unlink()
    path.symlink_to(real)
    assert run(argv) == EXIT_OK
    assert path.is_symlink() and real.read_bytes() == new and real.stat().st_mtime_ns == PAST


@pytest.mark.parametrize("command", ["generate", "bindgen-lite", "diagram"])
@pytest.mark.parametrize("dangling", [False, True], ids=["other-bytes", "dangling"])
def test_a_symlink_at_an_output_path_is_replaced_not_written_through(tmp_path, command,
                                                                      dangling):
    if command == "diagram":
        dot = tmp_path / "components.dot"
        argv, path = [SAMPLE, "--out", str(tmp_path / "gen"), "--diagram", str(dot)], dot
        new = emit_diagram(generate([("sample.cdl", golden("sample.cdl"))])[2]).encode()
    else:
        argv, path, new = _one_output(tmp_path, command)
    assert run(argv) == EXIT_OK
    outside = tmp_path / "outside.txt"
    if not dangling:
        outside.write_bytes(b"not an output\n")
    path.unlink()
    path.symlink_to(os.path.relpath(outside, path.parent))
    assert run(argv) == EXIT_OK
    assert not path.is_symlink() and path.read_bytes() == new
    assert outside.read_bytes() == b"not an output\n" if not dangling else not outside.exists()


@pytest.mark.parametrize("dangling", [False, True], ids=["to-a-file", "dangling"])
def test_a_symlink_at_a_skeleton_path_is_kept(tmp_path, dangling):
    out = tmp_path / "gen"
    out.mkdir()
    target = tmp_path / "impl.rs"
    if not dangling:
        target.write_text("// hand-written\n")
    (out / "t_sensor_impl.rs").symlink_to("../impl.rs")
    assert run([SAMPLE, "--out", str(out)]) == EXIT_OK
    assert (out / "t_sensor_impl.rs").is_symlink()
    assert target.read_text() == "// hand-written\n" if not dangling else not target.exists()


def test_outputs_are_not_executable_under_umask_022(tmp_path):
    # each kind of output is created as `open()` creates a file: 0o666 less the umask
    src = tmp_path / "w.cdl"
    src.write_text(FACTORY_UNIT.format(target="sub/x.cfg", dst="d"))
    out = tmp_path / "gen"
    old = os.umask(0o022)
    try:
        assert run([SAMPLE, "--out", str(out), "--diagram", str(tmp_path / "d.dot")]) == EXIT_OK
        assert run([str(src), "--out", str(out), "--diagram", str(out / "docs" / "d.dot")]) == 0
        assert run(["bindgen-lite", str(GOLDENS / "kernel_cfg.h"), "-o",
                    str(tmp_path / "k.rs")]) == EXIT_OK
    finally:
        os.umask(old)
    for path in [out / "s_sensor.rs", out / "t_sensor.rs", out / "t_sensor_impl.rs",
                 out / "sub" / "x.cfg", tmp_path / "d.dot", out / "docs" / "d.dot",
                 tmp_path / "k.rs"]:
        assert oct(path.stat().st_mode & 0o777) == oct(0o644), path


@pytest.mark.parametrize("what", ["factory-target", "diagram"])
@pytest.mark.parametrize("dangling", [False, True], ids=["live", "dangling"])
def test_a_symlinked_directory_inside_out_writes_nothing(tmp_path, monkeypatch, capsys, what,
                                                         dangling):
    monkeypatch.chdir(tmp_path)
    Path("w.cdl").write_text(FACTORY_UNIT.format(
        target="sub/x.cfg" if what == "factory-target" else "x.cfg", dst="d"))
    Path("gen").mkdir()
    if not dangling:
        Path("elsewhere").mkdir()
    Path("gen/sub").symlink_to("../elsewhere")
    before = _tree(tmp_path)
    diagram = ["--diagram", "gen/sub/d.dot"] if what == "diagram" else []
    assert run(["w.cdl", "--out", "gen", *diagram]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: gen/sub is a symlink: nothing is written through it\n")
    assert _tree(tmp_path) == before and Path("gen/sub").is_symlink()
    assert list(Path("gen").iterdir()) == [Path("gen/sub")]
    assert not Path("elsewhere").exists() if dangling else not any(Path("elsewhere").iterdir())


def test_a_symlinked_directory_deeper_inside_out_writes_nothing(tmp_path, monkeypatch, capsys):
    # each directory below --out is checked, not only the first
    monkeypatch.chdir(tmp_path)
    Path("w.cdl").write_text(FACTORY_UNIT.format(target="a/b/x.cfg", dst="d"))
    Path("gen/a").mkdir(parents=True)
    Path("elsewhere").mkdir()
    Path("gen/a/b").symlink_to("../../elsewhere")
    assert run(["w.cdl", "--out", "gen"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: gen/a/b is a symlink: nothing is written through it\n")
    assert not any(Path("elsewhere").iterdir()) and list(Path("gen").rglob("*.rs")) == []


def test_a_symlinked_out_directory_is_written_into(tmp_path):
    # --out itself may be a link: only the directories below it are checked
    (tmp_path / "real").mkdir()
    (tmp_path / "gen").symlink_to("real")
    assert run([SAMPLE, "--out", str(tmp_path / "gen")]) == EXIT_OK
    assert {p.name for p in (tmp_path / "real").iterdir()} == EXPECTED_SAMPLE_FILES


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors")
def test_an_unchanged_output_leaves_no_descriptor_open(tmp_path):
    # the unchanged check reads through a bare descriptor, which no ResourceWarning reports
    for command in ("generate", "bindgen-lite"):
        argv, _, _ = _one_output(tmp_path, command)
        assert run(argv) == EXIT_OK
        before = set(os.listdir("/proc/self/fd"))
        assert run(argv) == EXIT_OK
        assert set(os.listdir("/proc/self/fd")) == before


def test_an_empty_output_over_an_empty_file_keeps_its_mtime(tmp_path):
    header, out = tmp_path / "none.h", tmp_path / "none.rs"
    header.write_text("/* no #define */\n")
    gen = tmp_path / "gen"
    gen.mkdir()
    for path in (out, gen / "empty.cfg"):
        path.write_bytes(b"")
        os.utime(path, ns=(PAST, PAST))
    assert run(["bindgen-lite", str(header), "-o", str(out)]) == EXIT_OK
    # no compile output is empty, so the CLI's writer is called with one
    assert write_files([GeneratedFile("empty.cfg", "", WritePolicy.OVERWRITE)], gen) == [
        "empty.cfg"]
    for path in (out, gen / "empty.cfg"):
        assert path.read_bytes() == b"" and path.stat().st_mtime_ns == PAST


def test_bindgen_lite_missing_header(tmp_path):
    assert run(["bindgen-lite", str(tmp_path / "nope.h"),
                "-o", str(tmp_path / "out.rs")]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["generate", "bindgen-lite"])
def test_input_that_is_not_utf8_is_one_located_error(tmp_path, capsys, command):
    # the bad byte lies past the first 8 KiB and after a two-byte character on
    # its line: the location counts characters of the whole file, and lines as
    # the parser sees them, "\r\n" and "\r" ending one each
    bad = tmp_path / "bad.in"
    bad.write_bytes(b"// " + b"x" * 9000 + b"\r\n//\r// caf\xc3\xa9 \xff\n")
    out = tmp_path / "out"
    argv = ([SAMPLE, str(bad), "--out", str(out)] if command == "generate"
            else ["bindgen-lite", str(bad), "-o", str(out)])
    assert run(argv) == EXIT_DIAGNOSTICS
    captured = capsys.readouterr()
    assert captured.err == f"{bad}:3:9: error[bad-encoding]: input is not valid UTF-8 (byte 0xff)\n"
    assert captured.out == "" and not out.exists()


_BOM = b"\xef\xbb\xbf"


def _run_in(cwd: Path, argv, capsys, monkeypatch):
    """`run(argv)` from `cwd`: its exit code, stdout, stderr and the files it wrote there."""
    monkeypatch.chdir(cwd)
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, {
        str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*"))
        if p.is_file() and p.name != "in"}


@pytest.mark.parametrize("command", ["generate", "bindgen-lite"])
def test_a_leading_bom_is_not_text(tmp_path, capsys, monkeypatch, command):
    # a UTF-8 byte-order mark before the first line changes nothing: not the tree, not
    # kernel_cfg.rs, not stdout and not stderr (the header's third #define is skipped)
    if command == "generate":
        text, argv = golden("sample.cdl").encode(), ["in", "--out", "gen"]
    else:
        text, argv = b"#define TSKID_1 1\n#define TSKID_2 2\n#define F(x) x\n", [
            "bindgen-lite", "in", "-o", "kernel_cfg.rs"]
    runs = []
    for twin, bom in (("plain", b""), ("bom", _BOM)):
        (tmp_path / twin).mkdir()
        (tmp_path / twin / "in").write_bytes(bom + text)
        runs.append(_run_in(tmp_path / twin, argv, capsys, monkeypatch))
    plain, with_bom = runs
    assert with_bom == plain and plain[0] == EXIT_OK
    if command == "bindgen-lite":
        assert plain[3] == {"kernel_cfg.rs": b"pub const TSKID_1: i32 = 1;\n"
                                             b"pub const TSKID_2: i32 = 2;\n"}
        assert plain[2] == ("in:3:1: warning[non-literal-define]: skipped #define without a "
                            "bare integer value: '#define F(x) x'\n")
    else:
        assert len(plain[3]) == len(EXPECTED_SAMPLE_FILES)


@pytest.mark.parametrize("command", ["generate", "bindgen-lite"])
def test_a_bad_byte_after_a_bom_is_located_as_without_it(tmp_path, capsys, command):
    for bom in (b"", _BOM):
        bad = tmp_path / "bad.in"
        bad.write_bytes(bom + b"// caf\xc3\xa9 \xff\n")
        argv = ([str(bad), "--out", str(tmp_path / "out")] if command == "generate"
                else ["bindgen-lite", str(bad), "-o", str(tmp_path / "out")])
        assert run(argv) == EXIT_DIAGNOSTICS
        assert capsys.readouterr().err == (
            f"{bad}:1:9: error[bad-encoding]: input is not valid UTF-8 (byte 0xff)\n")


_SIG = "signature sA { void f( void ); };\n"


# one minimal unit per diagnostic code that no other test names, each giving exactly one line
@pytest.mark.parametrize("text, expected", [
    (_SIG + "celltype tP { entry sB e; };\n",
     "2:15: error[unknown-signature]: port 'e' of celltype 'tP' references unknown signature 'sB'"),
    (_SIG + "celltype tP { entry sA e; };\ncell tP p { e = p.e; };\n",
     "3:13: error[not-a-call-port]: cell 'p' binds unknown call port 'e'"),
    (_SIG + "celltype tP { entry sA e; };\ncell tP p { c = p.e; };\n",
     "3:13: error[unknown-call-port]: cell 'p' binds unknown call port 'c'"),
    ("celltype tP { attr { int32_t n = 1; }; };\ncell tP p { m = 2; };\n",
     "2:13: error[unknown-attribute]: cell 'p' initializes unknown attr 'm'"),
    (_SIG + _SIG, "2:1: error[duplicate-definition]: signature 'sA' already defined"),
    ("celltype tP { attr { int32_t n = 1; int32_t n = 2; }; };\n",
     "1:1: error[duplicate-attr]: attr 'n' declared more than once in celltype 'tP'"),
    ("celltype tP { var { int32_t n = 1; int32_t n = 2; }; };\n",
     "1:1: error[duplicate-var]: var 'n' declared more than once in celltype 'tP'"),
    (_SIG + "celltype tP { entry sA e; };\ncelltype tC { call sA c; };\n"
     "cell tP p {};\ncell tC k { c = p.e; c = p.e; };\n",
     "5:1: error[duplicate-binding]: call port 'c' bound more than once in cell 'k'"),
    ("celltype tP { attr { int32_t n = 1; }; };\ncell tP p { n = 2; n = 3; };\n",
     "2:1: error[duplicate-attr-init]: attr 'n' initialized more than once in cell 'p'"),
    ('celltype tP { factory { write("", "x"); }; };\n',
     "1:25: error[empty-write-target]: factory write has an empty target file"),
    ("signature sA { void f( void ); void f( void ); };\n",
     "1:1: error[duplicate-function]: function 'f' defined more than once in signature 'sA'"),
    ("signature sA { void f( [in] int32_t a, [in] int32_t a ); };\n",
     "1:21: error[duplicate-param]: parameter 'a' repeated in function 'f'"),
    (_SIG + "celltype tP { entry sA e; entry sA e; };\n",
     "2:1: error[duplicate-port]: port 'e' declared more than once in celltype 'tP'"),
    (_SIG + "celltype tP { entry sA e; };\ncell tP p {};\ncell tP p {};\n",
     "4:1: error[duplicate-cell]: cell 'p' already defined"),
    ("celltype tP {};\ncelltype tP {};\n",
     "2:1: error[duplicate-definition]: celltype 'tP' already defined"),
    # a modifier goes on a port, or on an attr inside its block; at the first '['
    (_SIG + "celltype tP { entry sA e; [inline] attr { int32_t n = 1; }; };\n",
     "2:27: error[misplaced-modifier]: modifiers go on individual attrs"),
    (_SIG + "celltype tP { entry sA e;\n  [inline] var { int32_t v = 0; }; };\n",
     "3:3: error[misplaced-modifier]: a var block takes no modifiers"),
    (_SIG + 'celltype tP { entry sA e; [omit] factory { write("x.cfg", "X"); }; };\n',
     "2:27: error[misplaced-modifier]: a factory block takes no modifiers"),
    (_SIG + 'celltype tP { [omit] [inline] FACTORY { write("x.cfg", "X"); }; };\n',
     "2:15: error[misplaced-modifier]: a FACTORY block takes no modifiers"),
    # [omit] before a token that starts no celltype member: at the '['
    ("celltype tP { [omit] foo; };\n", "1:15: error[unexpected-token]: expected celltype member"),
    # quoted CDL text shows a control character as its escape, so the line stays one
    ('celltype tP { attr { int32_t x = "a\\nb"; }; };\n',
     "1:34: error[expected-initializer]: expected initializer, found 'a\\nb'"),
    ('cell "x\\ny" {};\n', "1:6: error[unexpected-token]: expected celltype name, found 'x\\ny'"),
    ('celltype tP { factory { write("a\\n$", "x"); }; };\n',
     "1:25: error[unbalanced-macro]: unbalanced '$' holes in write to 'a\\n$'"),
], ids=["unknown-signature", "not-a-call-port", "unknown-call-port", "unknown-attribute",
        "duplicate-definition", "duplicate-attr", "duplicate-var", "duplicate-binding",
        "duplicate-attr-init", "empty-write-target", "duplicate-function", "duplicate-param",
        "duplicate-port", "duplicate-cell", "duplicate-definition-celltype",
        "misplaced-modifier-attr", "misplaced-modifier-var", "misplaced-modifier-factory",
        "misplaced-modifier-FACTORY", "omit-before-no-member", "escaped-initializer",
        "escaped-name", "escaped-write-target"])
def test_each_diagnostic_code_is_one_located_line(tmp_path, capsys, text, expected):
    src = tmp_path / "u.cdl"
    src.write_text(text)
    out = tmp_path / "gen"
    assert run([str(src), "--out", str(out), "--plugin", "RustGenPlugin"]) == EXIT_DIAGNOSTICS
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"{src}:{expected}"] and captured.out == ""
    assert not out.exists()


NON_GENERATING = """signature sSig0 { void fn0( void ); };
celltype tProv0 { entry sSig0 eProv0x0; };
[generate(RustGenPlugin, "lib")]
celltype tCons0 { call sSig0 cUse0x0; };
cell tProv0 P0n0 {};
cell tCons0 C0n0 { cUse0x0 = P0n0.eProv0x0; };
"""


def test_binding_into_a_celltype_that_generates_no_rust_is_a_located_error(tmp_path, capsys):
    # t_cons0.rs would import `crate::t_prov0`, which no output defines (rustc: E0432)
    src = tmp_path / "u.cdl"
    src.write_text(NON_GENERATING)
    out = tmp_path / "gen"
    assert run([str(src), "--out", str(out)]) == EXIT_DIAGNOSTICS
    assert not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"{src}:6:20: error[non-generating-target]: cell 'C0n0' binds 'cUse0x0' to cell "
        "'P0n0', whose celltype 'tProv0' generates no Rust"]
    # with a default plugin the target generates too
    assert run([str(src), "--out", str(out), "--plugin", "RustGenPlugin"]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "s_sig0.rs", "t_cons0.rs", "t_prov0.rs", "t_prov0_impl.rs"]


# what a mutant may put in place of a lexeme: keywords, punctuation, `$` holes bare and in
# strings, NUL, a `\n` escape in strings, non-ASCII letters, and names that map to no Rust
# identifier
MUTANT_POOL = sorted(KEYWORDS) + list("{}()[];,=*.") + [
    "$ct$", "$cell$", '"$ct$"', '"$cell$_$x$"', "\x00", '"\x00"', '"a\\nb"', '"\\n$"', "é",
    "名前", "self", "__"]
_LOCATED = r"{}:\d+:\d+: (error|warning)\[[a-z-]+\]: .*"


@settings(max_examples=120, deadline=None)
@given(mutants(MUTANT_POOL))
@example('celltype tP { attr { int32_t x = "a\\nb"; }; };\n')  # an escape in a quoted string
def test_a_text_mutant_runs_the_whole_pipeline_without_a_traceback(text):
    # a fresh directory per example: hypothesis reuses a function-scoped `tmp_path`
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "m.cdl"
        src.write_text(text, encoding="utf-8")
        located = re.compile(_LOCATED.format(re.escape(str(src))))
        for plugin in ([], ["--plugin", "RustGenPlugin"]):
            out, err = Path(tmp) / ("out" + "".join(plugin)), io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run([str(src), "--out", str(out), *plugin])
            lines = err.getvalue().splitlines()
            found = [located.fullmatch(line) for line in lines]
            assert code in (EXIT_OK, EXIT_DIAGNOSTICS, EXIT_USAGE), code
            assert all(m or code == EXIT_USAGE and line.startswith("error: ")
                       for m, line in zip(found, lines)), lines
            assert (code == EXIT_DIAGNOSTICS) == any(m and m[1] == "error" for m in found), lines
            if code == EXIT_OK:
                for path in out.rglob("*"):
                    if path.is_file():
                        path.read_bytes().decode("utf-8")
