"""Traced in-process run of the tecsrust pipeline.

    python3 perfbench/trace_run.py --workload app_16k --seed 1 --seconds 36 \
        --work DIR --result DIR/trace_result.json

Calls each module's public functions in the order `cli.generate` calls
them and records a span around every call, from this file: no code of the
program changes. The tokenizer is reached only inside `parse_unit`, so its
module attribute is wrapped for the traced builds and restored after.
`naming` is only reached inside the emitters and is timed as part of them.

Each iteration makes a traced build at full size and an untraced
in-process build at full size (`cli.run`, the CLI minus interpreter
start-up), in alternating order, then a traced build at half size.
Per-layer numbers are medians over iterations; `*.growth_x2` is the
full/half ratio of a layer's median self time, and `trace.overhead_s` is
the traced minus the untraced median pipeline time.
All spans (name, start, end, parent, build id) are written at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import re
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import workloads  # noqa: E402
from tecsrust import cli, emit_core, emit_rtos, frontend, header_const, linker, model  # noqa: E402
from tecsrust.emit_core import GeneratedFile, WritePolicy  # noqa: E402

MAX_SECONDS = 120

# per-layer metric -> span names whose self times it sums
SELF_TIMES = {
    "frontend.tokenize_s": ("frontend.tokenize",),
    "frontend.parse_s": ("frontend.parse_unit",),
    "model.validate_s": ("model.validate_unit",),
    "linker.resolve_s": ("linker.resolve",),
    "linker.cells_of_s": ("linker.cells_of",),
    "linker.plan_s": ("linker.plan_emission",),
    "emit_core.contract_s": ("emit_core.emit_contract",),
    "emit_core.definition_s": ("emit_core.emit_definition",),
    "emit_core.skeleton_s": ("emit_core.emit_skeleton",),
    "emit_rtos.factory_s": ("emit_rtos.run_factory", "emit_rtos.config_files"),
    "header_const.convert_s": ("header_const.bindgen_lite",),
    "cli.read_s": ("cli.read",),
    "cli.write_s": ("cli.write",),
    "cli.self_s": ("cli.build",),
}
GROWTH = {
    "frontend.tokenize.growth_x2": "frontend.tokenize_s",
    "frontend.parse.growth_x2": "frontend.parse_s",
    "linker.resolve.growth_x2": "linker.resolve_s",
    "linker.cells_of.growth_x2": "linker.cells_of_s",
    "emit_core.definition.growth_x2": "emit_core.definition_s",
}
COUNTS = (
    "frontend.tokens", "frontend.bytes_in", "model.diagnostics", "linker.celltypes",
    "linker.cells", "linker.bindings", "emit_core.files", "emit_core.bytes",
    "emit_rtos.config_lines", "emit_rtos.macro_holes", "cli.files_written",
    "cli.files_skipped", "header_const.defines", "header_const.skipped",
)
UNITS = {
    **{k: "s" for k in SELF_TIMES}, **{k: "x" for k in GROWTH}, **{k: "count" for k in COUNTS},
    "frontend.bytes_in": "B", "emit_core.bytes": "B", "frontend.tokens_per_s": "tokens/s",
    "trace.traced_s": "s", "trace.untraced_s": "s", "trace.overhead_s": "s",
}

_HOLE = re.compile(r"\$[A-Za-z_][A-Za-z0-9_]*\$")


class BuildFailed(Exception):
    pass


class Tracer:
    """Spans kept in memory as (name, start, end, parent index, build id)."""

    def __init__(self):
        self.spans = []
        self.current = None
        self.build = None

    def call(self, name, fn, *args):
        idx = len(self.spans)
        self.spans.append(None)
        parent, self.current = self.current, idx
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[idx] = (name, start, time.perf_counter(), parent, self.build)
            self.current = parent

    def self_times(self, build) -> dict:
        """Summed self time per span name: duration minus the children's."""
        covered = defaultdict(float)
        for name, start, end, parent, b in self.spans:
            if b == build and parent is not None:
                covered[parent] += end - start
        totals = defaultdict(float)
        for idx, (name, start, end, parent, b) in enumerate(self.spans):
            if b == build:
                totals[name] += end - start - covered[idx]
        return totals

    def duration(self, build) -> float:
        return next(end - start for name, start, end, parent, b in self.spans
                    if b == build and parent is None)


def _read(paths):
    return [(str(p), p.read_text(encoding="utf-8")) for p in paths]


def _pipeline(tr: Tracer, cdl, header, out: Path) -> dict:
    """`cli.run` (and `bindgen-lite` when there is a header), call by call."""
    sources = tr.call("cli.read", _read, cdl)
    diags, units, n_validate = [], [], 0
    for name, text in sources:
        result = tr.call("frontend.parse_unit", frontend.parse_unit, text, name)
        diags.extend(result.diagnostics)
        if result.unit is not None:
            found = tr.call("model.validate_unit", model.validate_unit, result.unit)
            n_validate += len(found)
            diags.extend(found)
            units.append(result.unit)
    if model.has_errors(diags):
        raise BuildFailed(diags)
    resolved, link_diags = tr.call("linker.resolve", linker.resolve, units, None)
    diags.extend(link_diags)
    if resolved is None or model.has_errors(diags):
        raise BuildFailed(diags)

    plan = tr.call("linker.plan_emission", linker.plan_emission, resolved)
    files = [tr.call("emit_core.emit_contract", emit_core.emit_contract, sig)
             for sig in plan.contract_sigs]
    for ct in plan.definition_cts:
        cells = tr.call("linker.cells_of", resolved.cells_of, ct.name)
        files.append(tr.call("emit_core.emit_definition", emit_core.emit_definition,
                             ct, cells, resolved))
    for ct in plan.skeleton_cts:
        files.append(tr.call("emit_core.emit_skeleton", emit_core.emit_skeleton,
                             ct, resolved))
    n_core = len(files)
    writes, rtos_diags = tr.call("emit_rtos.run_factory", emit_rtos.run_factory,
                                 resolved, plan)
    diags.extend(rtos_diags)
    configs = tr.call("emit_rtos.config_files", emit_rtos.config_files, writes)
    files += [GeneratedFile(t, c, WritePolicy.OVERWRITE) for t, c in configs.items()]
    if model.has_errors(diags):
        raise BuildFailed(diags)
    # the line-count report cli.generate fills in
    report = linker.GenerationReport()
    skeleton_paths = set(plan.skeleton_files())
    for f in files:
        report.file_lines[f.path] = f.content.count("\n")
        if f.path in skeleton_paths:
            report.skeleton_files.add(f.path)
    written = tr.call("cli.write", cli.write_files, files, out)
    converted, header_diags = tr.call("header_const.bindgen_lite", _bindgen_lite, tr, header, out)
    return {"resolved": resolved, "plan": plan, "files": files, "n_core": n_core,
            "writes": writes, "written": written, "converted": converted,
            "header_diags": header_diags, "diags": diags, "n_validate": n_validate}


def _counts(r: dict) -> dict:
    """Work counts of one traced build, taken after its spans closed."""
    resolved, plan, files = r["resolved"], r["plan"], r["files"]
    return {
        "model.diagnostics": r["n_validate"],
        "linker.celltypes": len(resolved.celltype_index),
        "linker.cells": len(resolved.cells),
        "linker.bindings": sum(len(rc.bindings) for rc in resolved.cells),
        "emit_core.files": r["n_core"],
        "emit_core.bytes": sum(len(f.content.encode()) for f in files[:r["n_core"]]),
        "emit_rtos.config_lines": len(r["writes"]),
        "emit_rtos.macro_holes": sum(len(_HOLE.findall(pw.target_template + pw.line_template))
                                     for pw in plan.config_writes),
        "cli.files_written": len(r["written"]),
        "cli.files_skipped": len(files) - len(r["written"]),
        "header_const.defines": r["converted"].count("\n"),
        "header_const.skipped": len(r["header_diags"]),
        "_cli_log": "\n".join(map(str, r["diags"])),
        "_bindgen_log": "\n".join(map(str, r["header_diags"])),
    }


def _bindgen_lite(tr: Tracer, header, out: Path) -> tuple:
    """The bindgen-lite step; its self time is the conversion. A workload
    without a kernel header skips it, which leaves only the check."""
    if header is None:
        return "", []
    text = tr.call("cli.read", header.read_text, "utf-8")
    converted, diags = header_const.convert_defines(text, str(header))
    tr.call("cli.write", (out / "kernel_cfg.rs").write_text, converted, "utf-8", None, "\n")
    return converted, diags


def traced_build(tr: Tracer, cdl, header, out: Path) -> dict:
    counts = {"frontend.tokens": 0}
    tokenize = frontend.tokenize

    def traced_tokenize(text, source_name="<memory>"):
        tokens, diags = tr.call("frontend.tokenize", tokenize, text, source_name)
        counts["frontend.tokens"] += len(tokens)
        return tokens, diags

    frontend.tokenize = traced_tokenize
    try:
        result = tr.call("cli.build", _pipeline, tr, cdl, header, out)
    finally:
        frontend.tokenize = tokenize
    counts.update(_counts(result))
    return counts


def untraced_build(cdl, header, out: Path) -> tuple:
    """The CLI's own entry point in-process: (seconds, exit codes, stderr texts)."""
    err_cli, err_bg = io.StringIO(), io.StringIO()
    codes = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(err_cli):
            codes.append(cli.run([*map(str, cdl), "--out", str(out)]))
        if header is not None:
            with contextlib.redirect_stderr(err_bg):
                codes.append(cli.run(["bindgen-lite", str(header),
                                      "-o", str(out / "kernel_cfg.rs")]))
    return time.perf_counter() - start, codes, err_cli.getvalue(), err_bg.getvalue()


class Subject:
    """One workload size: its inputs, output location and checks."""

    def __init__(self, wl: workloads.Workload, work: Path):
        self.wl = wl
        self.work = work
        self.cdl, self.header = wl.write_inputs(work / "in")
        self.regen = bool(wl.expect.preserved)
        self.count = 0
        if self.regen:
            _, codes, _, _ = untraced_build(self.cdl, self.header, self.out())
            if any(codes):
                raise RuntimeError(f"set-up build exited with {codes}")
            wl.plant_skeletons(self.out())

    def out(self) -> Path:
        return self.work / ("tree" if self.regen else f"out{self.count}")

    def check(self, cli_log: str, bindgen_log: str) -> list:
        out = self.out()
        problems = oracle.check_logs(cli_log, bindgen_log, self.wl.expect)
        problems += oracle.check_tree(out, self.wl.expect)
        if not self.regen:
            shutil.rmtree(out, ignore_errors=True)
        self.count += 1
        return problems


def measure(full: workloads.Workload, half: workloads.Workload, seconds: float,
            work: Path) -> tuple:
    """Run traced/untraced/half-size iterations; return (result dict, tracer).

    Raises StatisticsError when no build of some kind completed, since
    there is then nothing to report.
    """
    tr = Tracer()
    subjects = {"full": Subject(full, work / "full"), "half": Subject(half, work / "half")}
    self_times = {"full": [], "half": []}
    traced, untraced, counts = [], [], {}
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i == 0 or (time.perf_counter() - start < seconds
                     and time.perf_counter() - start < MAX_SECONDS):
        # alternate which full-size build goes first, so neither always
        # inherits the heap the other left behind
        order = ("full", "untraced") if i % 2 == 0 else ("untraced", "full")
        for kind in order + ("half",):
            subject = subjects["half" if kind == "half" else "full"]
            gc.collect()
            attempted += 1
            try:
                if kind == "untraced":
                    secs, codes, cli_log, bg_log = untraced_build(
                        subject.cdl, subject.header, subject.out())
                    problems = [f"exit code {c}" for c in codes if c]
                    untraced.append(secs)
                else:
                    tr.build = f"{full.name}-{kind}-{i}"
                    found = traced_build(tr, subject.cdl, subject.header, subject.out())
                    cli_log, bg_log = found.pop("_cli_log"), found.pop("_bindgen_log")
                    self_times[kind].append(tr.self_times(tr.build))
                    if kind == "full":
                        traced.append(tr.duration(tr.build))
                        counts = found
                    problems = []
                problems += subject.check(cli_log, bg_log)
            except Exception:
                problems = [traceback.format_exc(limit=3)]
            if problems:
                failed += 1
                print(f"  FAILED {kind} build {i}: {problems[:3]}")
        i += 1

    medians = {kind: {name: statistics.median(sum(st[s] for s in spans) for st in runs)
                      for name, spans in SELF_TIMES.items()}
               for kind, runs in self_times.items()}
    metrics = dict(medians["full"])
    metrics.update({name: medians["full"][base] / medians["half"][base]
                    for name, base in GROWTH.items()})
    metrics.update({k: counts.get(k, 0) for k in COUNTS})
    metrics["frontend.bytes_in"] = sum(p.stat().st_size for p in subjects["full"].cdl)
    metrics["frontend.tokens_per_s"] = metrics["frontend.tokens"] / metrics["frontend.tokenize_s"]
    metrics["trace.traced_s"] = statistics.median(traced)
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]

    print(f"traced run {full.name} seed {full.seed}: {i} iterations "
          f"(traced and untraced full size, traced half size), "
          f"{failed} of {attempted} builds failed")
    for name in sorted(metrics):
        print(f"  {name:<32} {metrics[name]:>14.6g} {UNITS[name]}")
    self_sum = sum(metrics[k] for k in SELF_TIMES)
    print(f"  per-layer self times sum to {self_sum:.4f} s; untraced pipeline "
          f"{metrics['trace.untraced_s']:.4f} s; difference {self_sum - metrics['trace.untraced_s']:+.4f} s "
          f"against trace.overhead_s {metrics['trace.overhead_s']:+.4f} s")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}
    return result, tr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    full = workloads.build(args.workload, args.seed)
    half = workloads.build(args.workload, args.seed, scale=0.5)
    result, tr = measure(full, half, args.seconds, args.work)
    spans_path = HERE / "_work" / f"spans-{args.workload}-{args.seed}.json"
    spans_path.write_text(json.dumps([
        {"name": name, "start": start, "end": end, "parent": parent, "build": build}
        for name, start, end, parent, build in tr.spans]))
    print(f"  {len(tr.spans)} spans written to {spans_path.relative_to(HERE.parent)}")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
