"""RTOS glue: kernel-wrapper preamble, $macro$ substitution, factory writes."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from .model import CellDef, CelltypeDef, Diagnostic, error

if TYPE_CHECKING:  # annotations only: linker imports this module
    from .linker import EmissionPlan, ResolvedModel

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


def substitute_macros(template: str, env: MacroEnv) -> str:
    """Fill $ct$ / $cell$ / $attr$ holes in a single pass.

    Substituted text is not rescanned; a residual '$' after the pass
    (unbalanced holes, or a hole whose value itself carries holes) is an
    error rather than silent passthrough.
    """
    return _fill(template, env, {})


def _fill(template: str, env: MacroEnv, pieces: Dict[str, List[str]]) -> str:
    """substitute_macros, splitting a template at its holes once per `pieces` table."""
    split = pieces.get(template)
    if split is None:
        split = pieces[template] = _HOLE.split(template)  # text, hole name, text, ...
    parts = split[:]
    for i in range(1, len(parts), 2):
        parts[i] = env.lookup(parts[i])
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


@dataclass(slots=True, unsafe_hash=True)
class ConfigWrite:
    target_file: str
    rendered_line: str


def run_factory(model: ResolvedModel, plan: EmissionPlan
                ) -> tuple[List[ConfigWrite], List[Diagnostic]]:
    """Render every planned factory write in plan order.

    Writes aimed at the same target file stay in that order; the CLI joins
    them into one file per target. Each distinct target is checked once, at
    its first write: it must name a file inside `--out` that no core emitter
    writes, and no output may need its path, or a parent of it, as both a
    file and a directory. `target_file` drops the empty and '.' parts. A
    scope's writes are adjacent, so the macro environment is built once per
    celltype or cell, and each distinct template is split at its holes once.
    """
    writes: List[ConfigWrite] = []
    diags: List[Diagnostic] = []
    paths: Dict[str, str] = {}  # rendered target -> `target_file`
    files, dirs = set(model.owners["file"]), set()  # each output file, each target's parents
    pieces: Dict[str, List[str]] = {}  # template -> its split, for _fill
    scope = None  # the first write of the current (celltype, cell) scope
    for pw in plan.config_writes:
        if scope is None or pw.celltype is not scope.celltype or pw.cell is not scope.cell:
            scope, env = pw, build_env(pw.celltype, pw.cell)
        try:
            target = _fill(pw.target_template, env, pieces)
            line = _fill(pw.line_template, env, pieces)
        except MacroError as exc:
            diags.append(error("unresolved-macro", str(exc), pw.location))
            continue
        if target not in paths:
            parts = [p for p in target.split("/") if p not in ("", ".")]
            path = paths[target] = "/".join(parts)
            parents = ["/".join(parts[:i]) for i in range(1, len(parts))]
            both = [p for p in parents if p in files] + [path] * (path in dirs)
            if target.startswith("/") or ".." in parts or not parts:
                diags.append(error("write-outside-out", f"factory target '{target}' "
                                   "is not a file inside --out", pw.location))
            elif path in model.owners["file"]:
                diags.append(error("path-collision", f"factory target '{target}' "
                                   "names a file the core emitters write", pw.location))
            elif both and path not in files:
                diags.append(error("path-collision", f"factory target '{target}' "
                                   f"uses '{both[0]}' as a file and as a directory", pw.location))
            files.add(path)
            dirs.update(parents)
        writes.append(ConfigWrite(paths[target], line))
    return writes, diags


def config_files(writes: List[ConfigWrite]) -> Dict[str, str]:
    """Group rendered lines into per-target file contents (append order kept)."""
    grouped: Dict[str, List[str]] = {}
    for w in writes:
        grouped.setdefault(w.target_file, []).append(w.rendered_line)
    return {target: "\n".join(lines) + "\n" for target, lines in grouped.items()}


def uses_kernel_wrappers(model: ResolvedModel, ct: CelltypeDef) -> bool:
    return model.plugin_by_celltype.get(ct.name) == ITRONRS_PLUGIN
