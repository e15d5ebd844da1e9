"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS line on success so a plain `pytest -s
tests/test_acceptance.py` doubles as the acceptance report.
"""

import hashlib
import re
import time
from pathlib import Path

from hypothesis import given, settings

from cdl_renderer import render_unit
from conftest import GOLDENS, golden
from strategies import brute_force_counts, cdl_units
from tecsrust import naming
from tecsrust.cli import EXIT_DIAGNOSTICS, EXIT_OK, generate, run
from tecsrust.frontend import parse_unit
from tecsrust.header_const import convert_defines
from tecsrust.linker import plan_emission, resolve

SAMPLE = str(GOLDENS / "sample.cdl")


def _norm(text: str) -> str:
    return "\n".join(line.rstrip() for line in text.splitlines()) + "\n"


def _passed(n, what):
    print(f"PASS criterion {n}: {what}")


def test_criterion_1_golden_contract(sample_text):
    start = time.monotonic()
    files, _, _, diags = generate([("sample.cdl", sample_text)])
    elapsed = time.monotonic() - start
    assert not diags
    emitted = next(f for f in files if f.path == "s_sensor.rs")
    assert _norm(emitted.content) == _norm(golden("s_sensor.rs"))
    assert elapsed < 1.0
    _passed(1, f"contract file matches the golden byte-exactly ({elapsed:.3f}s)")


def test_criterion_2_golden_definition(sample_outputs):
    files, _, _ = sample_outputs
    content = files["t_sensor.rs"].content
    assert _norm(content) == _norm(golden("t_sensor.rs"))
    for required in ["pub static SENSOR:", "pub static SENSORVAR:",
                     "pub static ESENSORFORSENSOR:",
                     "pub fn get_cell_ref<'a>(&self) -> "
                     "(&T, &pbio_port_id_t, &Mutex<TSensorVar<'a>>)"]:
        assert required in content
    _passed(2, "definition file matches the golden, statics and accessor included")


def test_criterion_3_golden_skeleton(tmp_path, sample_outputs):
    files, _, _ = sample_outputs
    content = files["t_sensor_impl.rs"].content
    assert _norm(content) == _norm(golden("t_sensor_impl.rs"))
    methods = content.count("fn ")
    assert content.count("#[inline]") == methods == 5

    out = tmp_path / "gen"
    assert run([SAMPLE, "--out", str(out)]) == EXIT_OK
    impl = out / "t_sensor_impl.rs"
    modified = impl.read_text() + "// hand-written\n"
    impl.write_text(modified)
    assert run([SAMPLE, "--out", str(out)]) == EXIT_OK
    assert impl.read_text() == modified
    _passed(3, "skeleton matches the golden, is fully inlined, and survives reruns")


def test_criterion_4_golden_header_conversion():
    out, diags = convert_defines(golden("kernel_cfg.h"))
    assert out == golden("kernel_cfg.rs")
    assert len(out.splitlines()) == 8
    assert "ISRID_tISR_SIOPortTarget1_ISRInstance" in out
    assert diags == []
    _passed(4, "8 #defines convert to the 8 golden constants, case preserved")


def test_criterion_5_rtos_factory_coherence(kernel_outputs):
    files, _, _ = kernel_outputs
    cfg_line = next(l for l in files["tecsgen.cfg"].content.splitlines()
                    if l.startswith("CRE_TSK"))
    assert cfg_line.startswith("CRE_TSK(TSKID_1,")
    cfg_id = re.search(r"CRE_TSK\((TSKID_\d+),", cfg_line).group(1)
    ref_line = next(l for l in files["t_task_rs.rs"].content.splitlines()
                    if "from_raw_nonnull" in l)
    ref_id = re.search(r"(TSKID_\d+)", ref_line).group(1)
    assert cfg_id == ref_id
    _passed(5, f"config line and TaskRef initializer agree on {cfg_id}")


@settings(max_examples=25, deadline=None)
@given(cdl_units())
def test_criterion_6_file_count_law(unit):
    model, diags = resolve([unit])
    assert model is not None, diags
    plan = plan_emission(model)
    n_sigs, n_defs, n_skels = brute_force_counts(unit)
    assert len([naming.file_name("contract", s.name) for s in plan.contract_sigs]) == n_sigs
    assert len([naming.file_name("definition", ct.name) for ct in plan.definition_cts]) == n_defs
    assert len(plan.skeleton_files()) == n_skels


def test_criterion_6_report():
    _passed(6, "plan cardinalities equal brute-force AST counts on >=25 random models")


@settings(max_examples=100, deadline=None)
@given(cdl_units())
def test_criterion_7_round_trip(unit):
    rendered = render_unit(unit)
    reparsed = parse_unit(rendered, "gen.cdl").unit
    assert reparsed == unit
    assert parse_unit(render_unit(reparsed), "gen2.cdl").unit == reparsed


def test_criterion_7_report():
    _passed(7, "parse/render round trip holds on 100 generated units")


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_criterion_8_determinism(tmp_path):
    kernel = str(GOLDENS / "kernel_rs.cdl")
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run([SAMPLE, kernel, "--out", str(out)]) == EXIT_OK
        hashes.append(_tree_hash(out))
    assert hashes[0] == hashes[1]
    _passed(8, f"two full runs hash identically ({hashes[0][:12]}...)")


DIAG_SCENARIOS = {
    "unbound-call-port": """
signature sA { void f( void ); };
[generate(RustGenPlugin, "lib")]
celltype tP { entry sA eA; };
[generate(RustGenPlugin, "lib")]
celltype tC { call sA cA; };
[generate(RustGenPlugin, "lib")]
cell tP P {};
[generate(RustGenPlugin, "lib")]
cell tC C {};
""",
    "signature-mismatch": """
signature sA { void f( void ); };
signature sB { void g( void ); };
[generate(RustGenPlugin, "lib")]
celltype tP { entry sB eB; };
[generate(RustGenPlugin, "lib")]
celltype tC { call sA cA; };
[generate(RustGenPlugin, "lib")]
cell tP P {};
[generate(RustGenPlugin, "lib")]
cell tC C { cA = P.eB; };
""",
    "out-requires-pointer": """
signature sA { void f( [out] int32_t x ); };
""",
    "unresolved-macro": """
[generate(ItronrsGenPlugin, "lib")]
celltype tT {
    factory { write("x.cfg", "A_$nope$"); };
};
[generate(ItronrsGenPlugin, "lib")]
cell tT T1 {};
""",
    "uninitialized-attribute": """
[generate(RustGenPlugin, "lib")]
celltype tU { attr { int32_t a; }; };
[generate(RustGenPlugin, "lib")]
cell tU U1 {};
""",
}


def test_criterion_9_diagnostics_suite(tmp_path):
    for code, text in DIAG_SCENARIOS.items():
        src = tmp_path / f"{code}.cdl"
        src.write_text(text)
        out = tmp_path / f"out_{code}"
        assert run([str(src), "--out", str(out)]) == EXIT_DIAGNOSTICS, code
        assert not out.exists(), f"{code}: files were written despite the error"
        files, _, _, diags = generate([(src.name, text)])
        errors = [d for d in diags if d.severity.value == "error"]
        assert len(errors) == 1, (code, diags)
        assert errors[0].code == code
        assert errors[0].location.line > 0 and errors[0].location.column > 0
        assert files == []
    _passed(9, "each of the 5 failure scenarios yields exactly one located error "
               "and zero files")


def test_criterion_10_report_plausibility(sample_outputs):
    _, plan, _ = sample_outputs
    rep = plan.report
    assert rep.auto_total > rep.skeleton_total > 0
    _passed(10, f"auto-generated lines ({rep.auto_total}) exceed skeleton stubs "
                f"({rep.skeleton_total})")
