"""Every diagnostic code the package can emit is named by some test.

The codes are read from the source with `ast`: the first argument of each
`error(...)`/`warning(...)` call in a function, both branches of a
conditional, a local name through its assignments in the same function
(or the items of a literal tuple that a `for` loop unpacks), and the
values of `linker._CLASH_CODES` for the calls that look a code up there.
"""

import ast
import re
from pathlib import Path

import tecsrust
from tecsrust import linker

PACKAGE = Path(tecsrust.__file__).parent
TESTS = Path(__file__).parent


def _strings(node, assigned) -> set:
    """The code strings `node` can evaluate to; fails on a form it cannot read."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _strings(node.body, assigned) | _strings(node.orelse, assigned)
    if isinstance(node, ast.Name) and assigned.get(node.id):
        return set().union(*(_strings(value, assigned) for value in assigned[node.id]))
    if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "_CLASH_CODES":
        return set(linker._CLASH_CODES.values())
    raise AssertionError(f"cannot read a diagnostic code from {ast.unparse(node)!r}")


def emitted_codes() -> dict:
    """code -> the source files that emit it."""
    codes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            if not isinstance(scope, ast.FunctionDef):
                continue
            assigned = {}
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign):
                    pairs = [(target, node.value) for target in node.targets]
                elif isinstance(node, ast.For) and isinstance(node.iter, (ast.Tuple, ast.List)):
                    pairs = [(node.target, item) for item in node.iter.elts]
                else:
                    continue
                for target, value in pairs:  # grows by the pairs of a tuple unpacked
                    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                        pairs += zip(target.elts, value.elts)
                    elif isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(value)
            for node in ast.walk(scope):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("error", "warning") and node.args):
                    for code in _strings(node.args[0], assigned):
                        codes.setdefault(code, set()).add(path.name)
    return codes


def test_the_collector_finds_the_codes_of_every_kind_of_call():
    codes = emitted_codes()
    # a literal, both branches of a conditional through a local, a loop over literal
    # tuples, and the clash table
    assert {"bad-encoding", "unexpected-eof", "unexpected-token", "not-a-call-port",
            "unknown-call-port", "duplicate-var", "duplicate-field",
            "constant-out-of-range"} <= set(codes)


def test_every_emitted_code_is_named_in_a_test():
    own = Path(__file__).resolve()
    text = "\n".join(p.read_text(encoding="utf-8") for p in sorted(TESTS.rglob("*.py"))
                     if p.resolve() != own)
    unnamed = sorted(code for code in emitted_codes()
                     if not re.search(r"(?<![\w-])%s(?![\w-])" % re.escape(code), text))
    assert unnamed == []
