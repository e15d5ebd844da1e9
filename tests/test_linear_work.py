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

Blind spot: work done inside C makes no event. A scan written as
`x in some_list` is one event or none however long the list is, so a
quadratic scan written that way passes.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from tecsrust import cli

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
    finally:
        sys.settrace(old_trace)
        sys.setprofile(None)
    assert files and not diags
    return counts


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_each_phase_does_linear_work(name):
    small, large = (work_per_phase(list(workloads.build(name, 7, scale).sources.items()))
                    for scale in SCALES)
    growth = {phase: large[phase] / small[phase] if small[phase] else float("inf")
              for phase in large}
    assert max(growth.values()) <= MAX_GROWTH, sorted(growth.items(), key=lambda kv: -kv[1])
