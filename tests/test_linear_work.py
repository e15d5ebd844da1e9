"""The work of each phase of `cli.generate` grows linearly with the input.

Each benchmark workload of `perfbench/workloads.py` (imported as it is) is
built at two scales, the second twice the first, and `cli.generate` runs on
both. A phase is one function that `generate` calls directly, with all it
calls; `generate`'s own C calls count as phase `generate`. A phase's work is
its `call` and `c_call` events of `sys.setprofile` plus its `line` events of
`sys.settrace`, and no phase may do more than 2.1 times as much at the
doubled scale. The line events are needed: a loop in Python code that calls
nothing, such as `[c for c in cells if c.celltype.name == name]`, makes one
call event however long `cells` is, but a line event per item.

Rendering the outputs, which `generate` leaves to their write, counts as
phase `render`.

Blind spot: work done inside C makes no event. A scan written as
`x in some_list` is one event or none however long the list is, so a
quadratic scan written that way passes.
"""

import gc
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from tecsrust import cli, linker

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SCALES = (0.05, 0.1)
MAX_GROWTH = 2.1


def work_per_phase(sources) -> Counter:
    counts: Counter = Counter()
    generate = cli.generate.__code__
    phase = None

    def profile(frame, event, arg):
        nonlocal phase
        if event == "call" and frame.f_back is not None and frame.f_back.f_code is generate:
            phase = frame.f_code.co_name
        if event == "c_call" and frame.f_code is generate:
            counts["generate"] += 1
        elif event in ("call", "c_call") and frame.f_code is not generate:
            counts[phase] += 1

    def lines(frame, event, arg):
        if event == "line":
            counts[phase] += 1
        return lines

    def trace(frame, event, arg):
        return None if frame.f_code is generate else lines

    old_trace = sys.gettrace()
    sys.setprofile(profile)
    sys.settrace(trace)
    try:
        files, _, _, diags = cli.generate(sources)
        phase = "render"
        texts = [f.content for f in files]
    finally:
        sys.settrace(old_trace)
        sys.setprofile(None)
    assert texts and not diags
    return counts


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_phase_does_linear_work(name):
    small, large = (work_per_phase(list(workloads.build(name, 7, scale).sources.items()))
                    for scale in SCALES)
    growth = {phase: large[phase] / small[phase] if small[phase] else float("inf")
              for phase in large}
    assert max(growth.values()) <= MAX_GROWTH, sorted(growth.items(), key=lambda kv: -kv[1])


def test_a_build_holds_one_output_text_at_a_time(tmp_path, monkeypatch):
    """Outputs render at their write, so `generate` returns the outputs with less memory
    than one output's text, and writing them raises it by no more than a few: a render
    holds an output's lines, their join and its encoded bytes at once. `app_16k` has
    many small outputs, so a build that held its tree would hold many times that."""
    sources = list(workloads.build("app_16k", 7, SCALES[0]).sources.items())
    resolved = []
    resolve = linker.resolve

    def measured(*args):
        found = resolve(*args)
        resolved.append(tracemalloc.get_traced_memory()[0])
        return found

    monkeypatch.setattr(linker, "resolve", measured)
    gc.disable()  # as `cli.main`: a collection would free other tests' garbage mid-build
    tracemalloc.start()
    try:
        files, _, _, diags = cli.generate(sources)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cli.write_files(files, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(files) > 50 and not diags
    text = max(sys.getsizeof(f.content) for f in files)  # the largest output's text
    assert held - resolved[0] < text
    assert peak - resolved[0] < 5 * text
