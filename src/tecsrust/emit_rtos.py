"""RTOS glue: kernel-wrapper preamble, $macro$ substitution, factory writes."""

from __future__ import annotations

import re
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

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


def escape_percent(text: str) -> str:
    """`text` as a literal part of a `%` template: each `%` doubled."""
    return text.replace("%", "%%")


def substitute_macros(template: str, values: Dict[str, str],
                      pieces: Dict[str, Tuple[str, Optional[Callable]]]) -> str:
    """Fill $ct$ / $cell$ / $attr$ holes in a single pass from `values`, such as
    `linker.macro_table` gives. A template is prepared once per `pieces` table: its
    text between holes, each `%` doubled, joined by `%s`, and a getter of its holes' values.

    Substituted text is not rescanned; a residual '$' after the pass
    (unbalanced holes, or a hole whose value itself carries holes) is an
    error rather than silent passthrough.
    """
    prepared = pieces.get(template)
    if prepared is None:
        parts = _HOLE.split(escape_percent(template))  # text, hole name, text, ...
        prepared = pieces[template] = ("%s".join(parts[::2]),
                                       itemgetter(*parts[1::2]) if len(parts) > 1 else None)
    fmt, get = prepared
    try:
        rendered = template if get is None else fmt % get(values)
    except KeyError as exc:  # the first hole, in template order, with no value
        if exc.args[0] == "cell":
            raise MacroError("$cell$ is not available outside a cell context") from None
        raise MacroError(f"unresolved macro '${exc.args[0]}$'") from None
    if "$" in rendered:
        raise MacroError(f"residual '$' after substitution in {rendered!r}")
    return rendered


def run_factory(model: ResolvedModel, plan: EmissionPlan) -> tuple[List[PlannedWrite], list]:
    """The factory writes `linker.resolve` rendered and checked, and no diagnostics.
    Kept only because `perfbench/trace_run.py` calls it; it goes with ROADMAP item 4."""
    return plan.config_writes, []


def config_groups(writes: List[PlannedWrite]) -> Dict[str, List[PlannedWrite]]:
    """The writes to each target file, targets and writes in plan order."""
    grouped: Dict[str, List[PlannedWrite]] = {}
    for w in writes:
        grouped.setdefault(w.target_file, []).append(w)
    return grouped


def file_text(lines: List[str]) -> str:
    """A file's content: each of `lines` and a newline. The last newline is appended to
    `lines`, so the joined text is not copied a second time."""
    lines.append("")
    return "\n".join(lines)


def config_files(writes: List[PlannedWrite]) -> Dict[str, str]:
    """Each target file's content, joined at once."""
    return {target: file_text([w.rendered_line for w in ws])
            for target, ws in config_groups(writes).items()}
