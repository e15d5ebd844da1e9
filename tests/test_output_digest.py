"""The benchmark workloads' output trees are pinned byte for byte.

Each workload of `perfbench/workloads.py` (imported as it is) is built at
`scale=0.05` for seeds 1 and 3 and run through `cli.generate`. The test
pins the file count, the total bytes and a sha256 over every file's path,
write policy and content, in output order. A refactor of the emitters or
the linker that claims to keep the output as it is must pass this test
unchanged; a change that means to alter the output updates the pins and
says why.

The regenerate-in-place test runs the `api_regen` loop through `cli.run`:
a build, the developer's skeletons planted over it, and a second build that
must leave every file's bytes and mtime as they were, and must not render
the skeletons it keeps.
"""

import hashlib
import os
import sys
from pathlib import Path

import pytest

from tecsrust import cli, emit_core

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SCALE = 0.05

# (workload, seed) -> (files, total bytes, sha256 over (path, policy, content))
PINNED = {
    ("app_16k", 1): (84, 241764,
                     "ee973319ea32e62ac4cd92dbdf214fcfb45647e3a7bdc2e02e8c1328eb3f8eeb"),
    ("app_16k", 3): (84, 241764,
                     "b5ac8a6b5afc88be4d2ccb5441a78f375d95129d9aad8eeea4585e061b272218"),
    ("rtos_tasks", 1): (34, 222747,
                        "49f08995a1aa7a7cff901afefec5f7b14f8366b69d8cf6b0e1fa0e5884387021"),
    ("rtos_tasks", 3): (34, 222724,
                        "2b8ed84a677fec8d63e812cc29e2e1665dc0ede6c239f229d4ef2693e29e24cd"),
    ("api_regen", 1): (30, 183286,
                       "f937a6ec04d541f88998b696e466ba010b265051733337ad9862827de82b87ef"),
    ("api_regen", 3): (30, 183748,
                       "101986f280da85082bc9654f87aff38692db38c979de8bb4683a00035a7d62cc"),
}


@pytest.mark.parametrize("name,seed", sorted(PINNED))
def test_workload_output_is_byte_identical(name, seed):
    files, _, _, diags = cli.generate(list(workloads.build(name, seed, SCALE).sources.items()))
    assert not diags, diags
    digest = hashlib.sha256()
    for f in files:
        for part in (f.path, f.policy.value, f.content):
            digest.update(part.encode("utf-8") + b"\0")
    total = sum(len(f.content.encode("utf-8")) for f in files)
    assert (len(files), total, digest.hexdigest()) == PINNED[name, seed]


def _tree(out: Path) -> dict:
    """Relative path -> (mtime in ns, sha256 of the bytes) for every file under `out`."""
    return {str(p.relative_to(out)): (p.stat().st_mtime_ns, hashlib.sha256(p.read_bytes()).digest())
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_regenerating_api_regen_in_place_changes_no_file(tmp_path):
    wl = workloads.build("api_regen", 1, SCALE)
    cdl, _ = wl.write_inputs(tmp_path / "in")
    out = tmp_path / "tree"
    argv = [*map(str, cdl), "--out", str(out)]
    assert cli.run(argv) == cli.EXIT_OK
    wl.plant_skeletons(out)
    past = 1_000_000_000_000_000_000  # ns: September 2001
    for path in out.rglob("*"):
        os.utime(path, ns=(past, past))
    before = _tree(out)
    assert {mtime for mtime, _ in before.values()} == {past}
    assert len(before) == 30 and set(wl.expect.preserved) < set(before)
    assert cli.run(argv) == cli.EXIT_OK
    assert _tree(out) == before


def test_regenerating_api_regen_renders_no_kept_skeleton(tmp_path, monkeypatch, capsys):
    rendered = []
    emit_skeleton = emit_core.emit_skeleton

    def counting(ct, model):
        rendered.append(ct.name)
        return emit_skeleton(ct, model)

    monkeypatch.setattr(emit_core, "emit_skeleton", counting)
    wl = workloads.build("api_regen", 1, SCALE)
    cdl, _ = wl.write_inputs(tmp_path / "in")
    out = tmp_path / "tree"
    argv = [*map(str, cdl), "--out", str(out)]
    assert cli.run(argv) == cli.EXIT_OK
    assert sorted(rendered) == [f"tServer{c:03d}" for c in range(5)]  # each once, to write it
    wl.plant_skeletons(out)
    rendered.clear()
    capsys.readouterr()
    assert cli.run(argv) == cli.EXIT_OK and cli.run([*argv, "--report"]) == cli.EXIT_OK
    assert rendered == []
    # the strings a build prints when it renders every skeleton and counts its text:
    # counting the kept skeletons' lines from their signatures gives the same numbers
    summary, table = capsys.readouterr().out.split("\n", 1)
    assert summary == (f"generated 30 files (25 written, 1070 generated lines, "
                       f"3265 stub lines) under {out}")
    assert table.endswith("total auto-generated   1070\ntotal skeleton stubs   3265\n")
    assert "t_server004_impl.rs    653  skeleton\n" in table
    assert hashlib.sha256(table.encode()).hexdigest() == (
        "ba6e8812738e1595235120a0768e30ded8fae1385e9503de0f89a9d060e36f0f")
