"""Type-check one self-contained generated Rust file with `rustc`.

`rustc_check(source, tmp_path)` writes `source` to a file and runs
`rustc --edition 2021 --crate-type lib --emit=metadata` on it, so the
check parses and type-checks the file without linking anything. It skips
the calling test when `rustc` is not on PATH. The file must need nothing
from outside itself: no crates, no sibling modules.
"""

import shutil
import subprocess

import pytest


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
