"""Correctness oracle: checks one build's output tree and logs against the
expectations the workload generator computed on its own."""

from __future__ import annotations

import hashlib
import os
import re
from pathlib import Path
from typing import List

from workloads import Expectation

_ERROR_LINE = re.compile(r"\berror(\[|:)")
_WARNING_LINE = re.compile(r"\bwarning\[non-literal-define\]")


def _files(out_dir: Path) -> list:
    found = []
    for dirpath, _, names in os.walk(out_dir):
        found += [os.path.relpath(os.path.join(dirpath, n), out_dir) for n in names]
    return sorted(found)


def digest_tree(out_dir: Path, exp: Expectation) -> tuple:
    """(sha256 over every path and content, bytes emitted by tecsrust).

    A tree with the digest of a tree that passed check_tree passes it too,
    so repeated builds of one workload need only this.
    """
    digest, emitted = hashlib.sha256(), 0
    for rel in _files(out_dir):
        data = (out_dir / rel).read_bytes()
        digest.update(rel.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
        if rel not in exp.preserved:
            emitted += len(data)
    return digest.hexdigest(), emitted


def check_tree(out_dir: Path, exp: Expectation) -> List[str]:
    """Every way the tree under `out_dir` differs from `exp`; one file in memory at a time."""
    found = set(_files(out_dir))
    problems = []
    missing, extra = exp.files - found, found - exp.files
    if missing:
        problems.append(f"missing files: {sorted(missing)[:5]}")
    if extra:
        problems.append(f"unexpected files: {sorted(extra)[:5]}")
    for rel in sorted(found):
        text = (out_dir / rel).read_text(encoding="utf-8")
        if rel in exp.preserved:
            if text != exp.preserved[rel]:
                problems.append(f"{rel}: hand-edited skeleton was overwritten")
        else:
            problems += _check_file(rel, text, exp)
    return problems


def _check_file(rel: str, text: str, exp: Expectation) -> List[str]:
    problems = []
    if rel in exp.exact and text != exp.exact[rel]:
        problems.append(f"{rel}: content differs from the generator's prediction")
    if rel in exp.static_counts:
        n = sum(1 for line in text.splitlines() if line.startswith("pub static "))
        if n != exp.static_counts[rel]:
            problems.append(f"{rel}: {n} `pub static` items, expected {exp.static_counts[rel]}")
    if rel in exp.contains:
        lines = set(text.splitlines())
        absent = [want for want in exp.contains[rel] if want not in lines]
        if absent:
            problems.append(f"{rel}: {len(absent)} expected lines absent, e.g. {absent[0]!r}")
    if rel in exp.fn_counts:
        n = sum(1 for line in text.splitlines() if line.lstrip().startswith("fn "))
        if n != exp.fn_counts[rel]:
            problems.append(f"{rel}: {n} `fn` items, expected {exp.fn_counts[rel]}")
    return problems


def check_logs(cli_stderr: str, bindgen_stderr: str, exp: Expectation) -> List[str]:
    """No error diagnostics anywhere; bindgen-lite warns once per non-literal define."""
    problems = []
    for name, text in (("tecsrust", cli_stderr), ("bindgen-lite", bindgen_stderr)):
        errors = [line for line in text.splitlines() if _ERROR_LINE.search(line)]
        if errors:
            problems.append(f"{name} reported errors, e.g. {errors[0]!r}")
    warnings = len(_WARNING_LINE.findall(bindgen_stderr))
    if warnings != exp.warnings:
        problems.append(f"bindgen-lite gave {warnings} warnings, expected {exp.warnings}")
    return problems
