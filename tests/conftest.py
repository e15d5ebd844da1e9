from pathlib import Path

import pytest

from rustc_check import build_shim
from tecsrust.cli import generate

GOLDENS = Path(__file__).parent / "goldens"


def golden(name: str) -> str:
    return (GOLDENS / name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def sample_text() -> str:
    return golden("sample.cdl")


@pytest.fixture(scope="session")
def kernel_text() -> str:
    return golden("kernel_rs.cdl")


@pytest.fixture(scope="session")
def sample_outputs(sample_text):
    files, plan, model, diags = generate([("sample.cdl", sample_text)])
    assert not diags, diags
    return {f.path: f for f in files}, plan, model


@pytest.fixture(scope="session")
def kernel_outputs(kernel_text):
    files, plan, model, diags = generate([("kernel_rs.cdl", kernel_text)])
    assert not diags, diags
    return {f.path: f for f in files}, plan, model


@pytest.fixture(scope="session")
def spin_crate(tmp_path_factory):
    """`externs` for `rustc_check_tree`: the `spin` stand-in, compiled once per session."""
    return {"spin": build_shim("spin", tmp_path_factory.mktemp("shims"))}
