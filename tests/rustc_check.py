"""Type-check generated Rust with `rustc`.

`rustc_check(source, tmp_path)` writes `source` to a file and runs
`rustc --edition 2021 --crate-type lib --emit=metadata` on it, so the
check parses and type-checks the file without linking anything. The file
must need nothing from outside itself: no crates, no sibling modules.

`rustc_check_tree(files, tmp_path)` checks a generated file set the same
way: it writes every `.rs` file of `files` (path -> content) and checks a
crate root that mounts each as a `#[path]` module named after its file, so
the modules' `use crate::{…}` imports resolve to each other. The set must
need no crate, such as `spin` or `itron`.

Both skip the calling test when `rustc` is not on PATH.
"""

import shutil
import subprocess

import pytest

from tecsrust import naming


def rustc_check(source: str, tmp_path) -> None:
    rustc = shutil.which("rustc")
    if rustc is None:
        pytest.skip("rustc is not on PATH, so the generated Rust cannot be type-checked")
    path = tmp_path / "generated.rs"
    path.write_text(source, encoding="utf-8")
    done = subprocess.run(
        [rustc, "--edition", "2021", "--crate-type", "lib", "--emit=metadata",
         "--out-dir", str(tmp_path), str(path)],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def rustc_check_tree(files: dict, tmp_path) -> None:
    (tmp_path / "gen").mkdir()
    mods = []
    for path, content in sorted(files.items()):
        if path.endswith(".rs"):
            (tmp_path / "gen" / path).write_text(content, encoding="utf-8")
            mods.append(f'#[path = "gen/{path}"]\npub mod {naming.rust_name(path[:-3])};')
    rustc_check("\n".join(mods) + "\n", tmp_path)
