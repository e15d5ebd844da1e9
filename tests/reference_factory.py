"""The `$macro$` filling and factory rendering tecsrust shipped with one macro
environment per attr text and per factory scope, kept as the reference.

`test_factory_differential.py` runs `tecsrust.linker.resolve` as it is and
with `attr_text` and `render_factory` below in place of the linker's own, and
requires the same attr texts, factory writes and diagnostics. `MacroEnv`,
`substitute_macros`, `_fill`, `build_env`, `attr_text` and `render_factory` are
the original code, unchanged but for their names and that a control character
(U+0000-U+001F, U+007F) in a rendered target is refused (`write-outside-out`), as
`open()` cannot name a file with a NUL, and shown escaped, so the diagnostic stays
one line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from tecsrust.emit_rtos import MacroError
from tecsrust.linker import PlannedWrite
from tecsrust.model import CellDef, CelltypeDef, FactoryScope, InitKind, error


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
    return _fill(template, env, {})


def _fill(template: str, env: MacroEnv, pieces: Dict[str, List[str]]) -> str:
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
    inits = {}  # reversed, so the first initializer of an attr wins
    for i in reversed(cell.attr_inits if cell is not None else ()):
        inits[i.attr_name] = i.value
    values: Dict[str, str] = {}
    for attr in ct.attrs:
        init = inits.get(attr.name, attr.default)
        if init is not None:
            values[attr.name] = init.text
    return MacroEnv(ct.name, cell.name if cell is not None else None, values)


def attr_text(ct: CelltypeDef, cell: CellDef, attr, diags) -> str:
    init = cell.init_for(attr.name) or attr.default
    if init is None:
        diags.append(error(
            "uninitialized-attribute",
            f"attr '{attr.name}' of cell '{cell.name}' has neither a default "
            f"nor a cell initializer", cell.location))
        return ""
    if init.kind is InitKind.C_EXP and "$" in init.text:
        try:
            return substitute_macros(init.text, build_env(ct, cell))
        except MacroError as exc:
            diags.append(error("unresolved-macro", str(exc), cell.location))
    return init.text


def render_factory(generating, cells, owners, diags) -> List[PlannedWrite]:
    def writes_of(ct, scope):
        return [w for block in ct.factory_blocks if block.scope is scope for w in block.writes]

    per_cell = {ct.name: ws for ct in generating if (ws := writes_of(ct, FactoryScope.PER_CELL))}
    scopes = [(ct, None, ws) for ct in generating
              if (ws := writes_of(ct, FactoryScope.PER_CELLTYPE))]
    scopes += [(rc.celltype, rc.cell, per_cell[rc.celltype.name])
               for rc in cells if rc.celltype.name in per_cell]
    rendered: List[PlannedWrite] = []
    paths: Dict[str, str] = {}  # rendered target -> `target_file`
    files, dirs = set(owners["file"]), set()  # each output file, each target's parents
    pieces: Dict[str, List[str]] = {}  # template -> its split, for _fill
    for ct, cell, writes in scopes:
        env = build_env(ct, cell)
        for w in writes:
            try:
                target = _fill(w.target_file, env, pieces)
                line = _fill(w.template, env, pieces)
            except MacroError as exc:
                diags.append(error("unresolved-macro", str(exc), w.location))
                continue
            if target not in paths:
                parts = [p for p in target.split("/") if p not in ("", ".")]
                path = paths[target] = "/".join(parts)
                parents = ["/".join(parts[:i]) for i in range(1, len(parts))]
                both = [p for p in parents if p in files] + [path] * (path in dirs)
                control = [c for c in target if c < " " or c == "\x7f"]
                if target.startswith("/") or ".." in parts or not parts or control:
                    shown = "".join(repr(c)[1:-1] if c in control else c for c in target)
                    diags.append(error("write-outside-out", f"factory target '{shown}' "
                                       "is not a file inside --out", w.location))
                elif path in owners["file"]:
                    diags.append(error("path-collision", f"factory target '{target}' "
                                       "names a file the core emitters write", w.location))
                elif both and path not in files:
                    diags.append(error("path-collision", f"factory target '{target}' uses "
                                       f"'{both[0]}' as a file and as a directory", w.location))
                files.add(path)
                dirs.update(parents)
            rendered.append(PlannedWrite(ct, cell, w.target_file, w.template, paths[target], line))
    return rendered
