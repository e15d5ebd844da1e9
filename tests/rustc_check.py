"""Type-check generated Rust with `rustc`.

`rustc_check(source, tmp_path)` writes `source` to a file and runs
`rustc --edition 2021 --crate-type lib --emit=metadata` on it, so the
check parses and type-checks the file without linking anything. The file
must need nothing from outside itself but the crates in `externs`: no
sibling modules.

`rustc_check_tree(files, tmp_path)` checks a generated file set the same
way: it writes every `.rs` file of `files` (path -> content) and checks a
crate root that mounts each as a `#[path]` module named after its file, so
the modules' `use crate::{…}` imports resolve to each other.

Both take `externs`, crate name -> compiled crate, for the crates the
source uses. `build_shim(name, out_dir)` compiles the hand-written
stand-in `rust_shims/<name>.rs` (`spin`, `itron`) to such a crate; the
`spin_crate` fixture of `conftest.py` does it once per session.

Both return rustc's stderr. With `check=False` they return it whether or
not rustc succeeded, for a test that expects given errors.

All three skip the calling test when `rustc` is not on PATH.
"""

import shutil
import subprocess
from pathlib import Path
from typing import Optional

import pytest

from tecsrust import naming

SHIMS = Path(__file__).parent / "rust_shims"


def _rustc(*args, check: bool = True) -> str:
    """rustc's stderr; with `check`, the test fails unless rustc succeeded."""
    rustc = shutil.which("rustc")
    if rustc is None:
        pytest.skip("rustc is not on PATH, so the generated Rust cannot be type-checked")
    done = subprocess.run([rustc, "--edition", "2021", *map(str, args)],
                          capture_output=True, text=True)
    assert done.returncode == 0 or not check, done.stderr
    return done.stderr


def build_shim(name: str, out_dir) -> Path:
    _rustc("--crate-type", "rlib", "--crate-name", name, "--out-dir", out_dir,
           SHIMS / f"{name}.rs")
    return Path(out_dir) / f"lib{name}.rlib"


def rustc_check(source: str, tmp_path, externs: Optional[dict] = None, check: bool = True) -> str:
    path = tmp_path / "generated.rs"
    path.write_text(source, encoding="utf-8")
    extern_args = [arg for name, crate in (externs or {}).items()
                   for arg in ("--extern", f"{name}={crate}")]
    return _rustc("--crate-type", "lib", "--emit=metadata", "--out-dir", tmp_path, path,
                  *extern_args, check=check)


def rustc_check_tree(files: dict, tmp_path, externs: Optional[dict] = None,
                     check: bool = True) -> str:
    (tmp_path / "gen").mkdir()
    mods = []
    for path, content in sorted(files.items()):
        if path.endswith(".rs"):
            (tmp_path / "gen" / path).write_text(content, encoding="utf-8")
            mods.append(f'#[path = "gen/{path}"]\npub mod {naming.rust_name(path[:-3])};')
    return rustc_check("\n".join(mods) + "\n", tmp_path, externs, check)
