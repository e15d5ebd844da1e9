"""Self-tests of the benchmark: generators, oracle, traced run and run.py.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
import trace_run  # noqa: E402
import workloads  # noqa: E402
from tecsrust import cli, frontend, linker, model  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = 0.05


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generated_cdl_parses_validates_and_resolves_cleanly(name):
    wl = workloads.build(name, 1)
    units = []
    for fname, text in wl.sources.items():
        result = frontend.parse_unit(text, fname)
        assert result.diagnostics == []
        assert model.validate_unit(result.unit) == []
        units.append(result.unit)
    resolved, diags = linker.resolve(units)
    assert diags == []
    assert len(resolved.cells) == wl.cells


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_is_reproducible_from_the_seed(name):
    a, b, c = workloads.build(name, 7), workloads.build(name, 7), workloads.build(name, 8)
    assert (a.sources, a.header) == (b.sources, b.header)
    assert a.sources != c.sources
    assert a.size_params()["cells"] == c.size_params()["cells"]


def _cli_build(wl: workloads.Workload, out: Path) -> tuple:
    """One in-process build: (stderr of the CLI, stderr of bindgen-lite)."""
    cdl, header = wl.write_inputs(out.parent / "in")
    err, bg_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.run([*map(str, cdl), "--out", str(out)]) == 0
    if header is not None:
        with contextlib.redirect_stderr(bg_err):
            assert cli.run(["bindgen-lite", str(header), "-o", str(out / "kernel_cfg.rs")]) == 0
    return err.getvalue(), bg_err.getvalue()


@pytest.fixture(params=workloads.WORKLOADS)
def built(request, tmp_path):
    wl = workloads.build(request.param, 3, SMALL)
    out = tmp_path / "out"
    logs = _cli_build(wl, out)
    if wl.expect.preserved:
        wl.plant_skeletons(out)
        logs = _cli_build(wl, out)  # the regenerate step
    assert oracle.check_logs(*logs, wl.expect) == []
    assert oracle.check_tree(out, wl.expect) == []
    return wl, out


# one line per workload that the oracle checks, and how to change it
_LINE_TO_CHANGE = {"app_16k": "  tag: ", "rtos_tasks": "CRE_SEM(", "api_regen": "  fn op"}


def test_oracle_rejects_a_changed_line(built):
    wl, out = built
    prefix = _LINE_TO_CHANGE[wl.name]
    path = next(p for p in sorted(out.iterdir()) if prefix in p.read_text())
    text = path.read_text()
    path.write_text(text.replace(prefix, prefix + "x", 1))
    assert oracle.check_tree(out, wl.expect)


def test_oracle_rejects_a_deleted_file(built):
    wl, out = built
    sorted(out.iterdir())[0].unlink()
    assert oracle.check_tree(out, wl.expect)


def test_oracle_rejects_an_overwritten_skeleton(tmp_path):
    wl = workloads.build("api_regen", 3, SMALL)
    out = tmp_path / "out"
    _cli_build(wl, out)  # fresh skeletons are generated text, not the hand edits
    assert any("hand-edited skeleton was overwritten" in p
               for p in oracle.check_tree(out, wl.expect))


def test_oracle_rejects_error_diagnostics_and_wrong_warning_counts():
    exp = workloads.build("rtos_tasks", 3, SMALL).expect
    warnings = "\n".join("h:1:1: warning[non-literal-define]: x" for _ in range(exp.warnings))
    assert oracle.check_logs("", warnings, exp) == []
    assert oracle.check_logs("a.cdl:1:1: error[bad-character]: x", warnings, exp)
    assert oracle.check_logs("", warnings + "\n" + warnings, exp)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_spawned_builds_pass_the_oracle(name, tmp_path):
    spawner = run.Spawner()
    try:
        builder = run.Builder(workloads.build(name, 5, SMALL), tmp_path, spawner)
        builder.setup()
        first, second = builder.build(), builder.build()
    finally:
        spawner.close()
    assert first.problems == [] and second.problems == []
    assert first.digest == second.digest
    assert 0 < spawner.hwm_kb / 1024 < first.rss_mb


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result, tracer = trace_run.measure(workloads.build(name, 2, SMALL),
                                       workloads.build(name, 2, SMALL / 2), 0, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for idx, (span_name, start, end, parent, build) in enumerate(tracer.spans):
        assert start <= end and build
        assert parent is None or parent < idx
    assert frontend.tokenize is trace_run.frontend.tokenize  # the wrapper was removed


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    spawner = run.Spawner()
    try:
        result = run.timed_run(workloads.build("rtos_tasks", 4, SMALL), tmp_path, 0, spawner)
    finally:
        spawner.close()
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_end_to_end_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(20)])
    assert value == 9.0 and pct == 50.0
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3)


def test_run_refuses_to_measure_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "app_16k",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
