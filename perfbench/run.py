"""tecsrust benchmark: timed CLI builds, or the traced in-process run.

    python3 perfbench/run.py --workload app_16k --seed 1 --seconds 36 --trace 0

Run from the repository root. With `--trace 0` each measured operation is
one build: a fresh `tecsrust` process (plus `tecsrust bindgen-lite` on
rtos_tasks) on CDL generated from the seed, checked by an oracle that
never reads expected values from tecsrust's output. With `--trace 1` the
per-layer numbers come from trace_run.py, in a process of its own.

Human-readable lines go to stdout first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

PROBES_PER_BUILD = 2   # setup_s probes, interleaved with the builds
# The shared machine this was written on ran Python up to twice as slowly
# for minutes at a time. Times are therefore reported at a reference speed:
# each measured wall time is multiplied by REFERENCE_S over the mean wall
# time of calibrate.py (fixed work, no tecsrust code) run just before and
# just after it. REFERENCE_S is calibrate.py's time when that machine was quiet.
REFERENCE_S = 0.13

END_TO_END = {
    "compile_s": "s", "cells_per_s": "cells/s", "peak_rss_mb": "MB",
    "output_bytes": "B", "setup_s": "s",
}


class Spawner:
    """Client of spawner.py, the small process every build is started from."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.hwm_kb = 0

    def run(self, argv: List[str], stderr_path: Path) -> tuple:
        """Run `python argv...` to exit: (wall seconds, exit code, ru_maxrss in KiB)."""
        req = {"argv": [sys.executable] + argv, "env": self.env, "stderr": str(stderr_path)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.hwm_kb = reply["spawner_hwm_kb"]
        return reply["seconds"], reply["exit_code"], reply["maxrss_kb"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


@dataclass
class Build:
    seconds: float
    rss_mb: float
    output_bytes: int
    digest: str
    problems: List[str] = field(default_factory=list)


class Builder:
    """Runs and checks builds of one workload inside a private work directory."""

    def __init__(self, wl: workloads.Workload, work: Path, spawner: Spawner):
        self.wl = wl
        self.work = work
        self.spawn = spawner.run
        self.cdl, self.header = wl.write_inputs(work / "in")
        self.regen = bool(wl.expect.preserved)
        self.count = 0
        self.passed_digest = None  # a tree with this digest passed check_tree

    def _out(self) -> Path:
        return self.work / ("tree" if self.regen else f"out{self.count}")

    def setup(self) -> None:
        """api_regen: one build, then every skeleton becomes a hand-edited file."""
        if self.regen:
            _, code, _ = self.spawn(self._cli_argv(), self.work / "setup.err")
            if code != 0:
                raise RuntimeError(f"set-up build exited with {code}")
            self.wl.plant_skeletons(self._out())

    def _cli_argv(self) -> List[str]:
        return ["-m", "tecsrust.cli", *map(str, self.cdl), "--out", str(self._out())]

    def build(self) -> Build:
        out = self._out()
        cli_err, bg_err = self.work / "cli.err", self.work / "bindgen.err"
        seconds, code, rss = self.spawn(self._cli_argv(), cli_err)
        codes = [code]
        bg_text = ""
        if self.header is not None:
            more, code, rss2 = self.spawn(["-m", "tecsrust.cli", "bindgen-lite",
                                           str(self.header), "-o", str(out / "kernel_cfg.rs")],
                                          bg_err)
            seconds += more
            codes.append(code)
            rss = max(rss, rss2)
            bg_text = bg_err.read_text()
        problems = [f"exit code {c}" for c in codes if c != 0]
        problems += oracle.check_logs(cli_err.read_text(), bg_text, self.wl.expect)
        digest, emitted = oracle.digest_tree(out, self.wl.expect)
        if digest != self.passed_digest:
            tree_problems = oracle.check_tree(out, self.wl.expect)
            if not tree_problems:
                self.passed_digest = digest
            problems += tree_problems
        if not self.regen:
            shutil.rmtree(out, ignore_errors=True)
        self.count += 1
        return Build(seconds, rss / 1024, emitted, digest, problems)


def probe_import(spawner: Spawner, work: Path) -> float:
    """Wall time of a fresh interpreter that imports tecsrust.cli and exits."""
    seconds, code, _ = spawner.run(["-c", "import tecsrust.cli"], work / "probe.err")
    if code != 0:
        raise RuntimeError("`import tecsrust.cli` failed: "
                           + (work / "probe.err").read_text()[-500:])
    return seconds


def calibrate(spawner: Spawner, work: Path) -> float:
    """Wall time of calibrate.py, started the way a build is."""
    seconds, code, _ = spawner.run([str(HERE / "calibrate.py")], work / "calibrate.err")
    if code != 0:
        raise RuntimeError("calibrate.py failed: " + (work / "calibrate.err").read_text())
    return seconds


def tail(times: List[float]) -> tuple:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With eleven samples or fewer no percentile has ten beyond it, and the
    lowest sample, the nearest to the rule, stands in.
    """
    ordered = sorted(times)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timed_run(wl: workloads.Workload, work: Path, seconds: float, spawner: Spawner) -> dict:
    builder = Builder(wl, work, spawner)
    probe_import(spawner, work)  # compiles bytecode once; not a sample
    builder.setup()
    builds: List[Build] = []
    probes: List[List[float]] = []    # the setup_s probes made after each build
    calibrations = [calibrate(spawner, work)]  # before the first build and after each
    start = time.perf_counter()
    while not builds or time.perf_counter() - start < seconds:
        builds.append(builder.build())
        probes.append([probe_import(spawner, work) for _ in range(PROBES_PER_BUILD)])
        calibrations.append(calibrate(spawner, work))
    for b in builds[1:]:
        if b.digest != builds[0].digest:
            b.problems.append("tree digest differs from the first build's")

    # each build's timings are scaled by the calibrations on either side of it
    scale = [2 * REFERENCE_S / (before + after)
             for before, after in zip(calibrations, calibrations[1:])]
    times = [b.seconds * f for b, f in zip(builds, scale)]
    setup = [p * f for ps, f in zip(probes, scale) for p in ps]
    n = len(builds)
    failed = sum(1 for b in builds if b.problems)
    compile_s = statistics.median(times)
    metrics = {
        "compile_s": compile_s,
        "cells_per_s": wl.cells / compile_s,
        "peak_rss_mb": statistics.median(b.rss_mb for b in builds),
        "output_bytes": statistics.median(b.output_bytes for b in builds),
        "setup_s": statistics.median(setup),
    }
    notes = {
        "compile_s": f"median of {n} builds; wall-clock median "
                     f"{statistics.median(b.seconds for b in builds):.4g} s",
        "cells_per_s": f"{wl.cells} cells / compile_s, {n} builds",
        "peak_rss_mb": f"median ru_maxrss of {n} builds",
        "output_bytes": f"median of {n} builds, {len({b.output_bytes for b in builds})} "
                        f"distinct",
        "setup_s": f"median of {len(setup)} `import tecsrust.cli` probes; wall-clock "
                   f"median {statistics.median(p for ps in probes for p in ps):.4g} s",
    }
    print(f"workload {wl.name} seed {wl.seed}: {wl.size_params()}")
    print(f"  times at reference speed: calibrate.py took {statistics.median(calibrations):.4g} s "
          f"(median of {len(calibrations)}), reference {REFERENCE_S} s")
    for name, value in metrics.items():
        print(f"  {name:<15} {value:>14.6g} {END_TO_END[name]:<8} ({notes[name]})")
    # Printed, not in the JSON line: with the few builds a run makes, the
    # value is the fastest build, too noisy to hold to a bound.
    value, pct = tail(times)
    print(f"  {'compile_s_tail':<15} {value:>14.6g} {'s':<8} (p{pct:.0f} of {n} builds)")
    print(f"  {'failed_ratio':<15} {failed / n:>14.6g} {'-':<8} ({failed} of {n} builds)")
    for b in builds:
        for p in b.problems[:3]:
            print(f"  FAILED: {p}")
    spawner_mb, lowest = spawner.hwm_kb / 1024, min(b.rss_mb for b in builds)
    print(f"  spawner peak RSS {spawner_mb:.1f} MB, lowest build peak {lowest:.1f} MB")
    if spawner_mb >= lowest:
        print("  FAILED: the spawner's memory is counted in peak_rss_mb")
        failed = n
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def traced_run(workload: str, seed: int, seconds: float, work: Path) -> dict:
    result_path = work / "trace_result.json"
    subprocess.run([sys.executable, str(HERE / "trace_run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--work", str(work),
                    "--result", str(result_path)],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=170)
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tecsrust" / "cli.py").is_file():
        print(f"error: tecsrust sources not found under {SRC}", file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, args.seconds, work)
        else:
            spawner = Spawner()  # before the workload exists, while this process is small
            try:
                wl = workloads.build(args.workload, args.seed)
                result = timed_run(wl, work, args.seconds, spawner)
            finally:
                spawner.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
