"""RTOS glue: kernel-wrapper preamble, $macro$ substitution, factory writes."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from .model import CellDef, CelltypeDef

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


@dataclass(slots=True)
class MacroEnv:
    ct: str
    cell: Optional[str] = None
    attr_values: Dict[str, str] = field(default_factory=dict)

    def lookup(self, name: str) -> str:
        if name == "ct":
            return self.ct
        if name == "cell":
            if self.cell is None:
                raise MacroError("$cell$ is not available outside a cell context")
            return self.cell
        if name in self.attr_values:
            return self.attr_values[name]
        raise MacroError(f"unresolved macro '${name}$'")


_HOLE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)\$")


def substitute_macros(template: str, lookup: Callable[[str], str],
                      pieces: Dict[str, List[str]]) -> str:
    """Fill $ct$ / $cell$ / $attr$ holes in a single pass, each with `lookup(name)`,
    such as `MacroEnv.lookup`; a template is split at its holes once per `pieces` table.

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


def build_env(ct: CelltypeDef, cell: Optional[CellDef]) -> MacroEnv:
    """Macro environment of one scope: a cell, or its celltype when cell is None.

    Attr values are the raw initializer texts: the cell's initializer when
    present, else the celltype default. [omit] attrs participate; they
    exist to feed the factory even though they never reach emitted records.
    One dict holds the cell's initializers, the first of an attr winning as
    in `CellDef.init_for`, so an env costs O(attrs + initializers).
    """
    inits = {}  # reversed, so the first initializer of an attr wins
    for i in reversed(cell.attr_inits if cell is not None else ()):
        inits[i.attr_name] = i.value
    values: Dict[str, str] = {}
    for attr in ct.attrs:
        init = inits.get(attr.name, attr.default)
        if init is not None:
            values[attr.name] = init.text
    return MacroEnv(ct.name, cell.name if cell is not None else None, values)


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
