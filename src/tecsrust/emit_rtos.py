"""RTOS glue: kernel-wrapper preamble, $macro$ substitution, factory writes."""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable, Dict, List

from .model import CelltypeDef

if TYPE_CHECKING:  # annotations only: linker imports this module
    from .linker import EmissionPlan, PlannedWrite, ResolvedModel

ITRONRS_PLUGIN = "ItronrsGenPlugin"

# Imports prepended to definition files that use the kernel wrapper types.
KERNEL_PREAMBLE_LINES = (
    "use crate::kernel_cfg::*;",
    "use itron::abi::*;",
    "use itron::TaskRef::*;",
)


class MacroError(ValueError):
    """A `$macro$` hole that cannot be filled; reported as `unresolved-macro`."""


_HOLE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)\$")


def substitute_macros(template: str, lookup: Callable[[str], str],
                      pieces: Dict[str, List[str]]) -> str:
    """Fill $ct$ / $cell$ / $attr$ holes in a single pass, each with `lookup(name)`,
    such as `linker.macro_lookup`'s; a template is split at its holes once per `pieces` table.

    Substituted text is not rescanned; a residual '$' after the pass
    (unbalanced holes, or a hole whose value itself carries holes) is an
    error rather than silent passthrough.
    """
    split = pieces.get(template)
    if split is None:
        split = pieces[template] = _HOLE.split(template)  # text, hole name, text, ...
    parts = split[:]
    for i in range(1, len(parts), 2):
        parts[i] = lookup(parts[i])
    rendered = "".join(parts)
    if "$" in rendered:
        raise MacroError(f"residual '$' after substitution in {rendered!r}")
    return rendered


def run_factory(model: ResolvedModel, plan: EmissionPlan) -> tuple[List[PlannedWrite], list]:
    """The factory writes `linker.resolve` rendered and checked, and no diagnostics.
    Kept only because `perfbench/trace_run.py` calls it; it goes with ROADMAP item 4."""
    return plan.config_writes, []


def config_files(writes: List[PlannedWrite]) -> Dict[str, str]:
    """Group rendered lines into per-target file contents (append order kept)."""
    grouped: Dict[str, List[str]] = {}
    for w in writes:
        grouped.setdefault(w.target_file, []).append(w.rendered_line)
    return {target: "\n".join(lines) + "\n" for target, lines in grouped.items()}


def uses_kernel_wrappers(model: ResolvedModel, ct: CelltypeDef) -> bool:
    return model.plugin_by_celltype.get(ct.name) == ITRONRS_PLUGIN
