"""`validate_unit` against the reference, on generated units and on mutants of the goldens.

`reference_validate.validate_unit` runs every check on every member. The shipped
`model.validate_unit` tests the cheap condition first and skips the rest for a clean
parameter, name list, initializer or directive. Both must give the same diagnostics:
code, message, location and order.

Each mutant of `sample.cdl` or `kernel_rs.cdl` applies a few edits drawn from
`EDITS`, which reach every check: repeated functions, parameters, ports, attrs, vars,
bindings and initializers, `[out]` without `*` and `**`, an odd number of `$` in an
initializer, a default or a write, the literals `0x`, `0X1F`, `010`, `-010`, and
`1²` and `-٣` with non-ASCII digits, an empty write target, and unknown plugins.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_validate
from conftest import golden
from strategies import cdl_units, cdl_units_with_gaps, colliding_units
from tecsrust.diagnostics import printable
from tecsrust.frontend import parse_unit
from tecsrust.model import validate_unit

GOLDENS = {name: golden(name) for name in ("sample.cdl", "kernel_rs.cdl")}

# (old, new): each edit replaces one occurrence of `old`, drawn at random, with `new`
EDITS = [
    # signatures: a function repeated, parameters repeated, `[out]` without `*`, `**`
    ("    void light_on( void );\n", "    void light_on( void );\n    void light_on( void );\n"),
    ("    void run( void );\n", "    void run( void );\n    void run( [in] int32_t a );\n"),
    ("[in] int32_t bv2", "[in] int32_t bv1"),
    ("[in] int32_t bv4", "[in] int32_t bv2, [in] int8_t bv2"),
    ("[out] int32_t* distance", "[out] int32_t* distance, [in] int32_t distance"),
    ("[out] int32_t* distance", "[out] int32_t distance"),
    ("[out] int32_t* distance", "[out] int32_t** distance"),
    ("[in] int32_t bv3", "[in] int32_t** bv3"),
    ("[in] int32_t bv1", "[in] int32_t* bv1"),
    ("[in] int32_t bv1", "[out] uint8_t bv1"),
    ("void wakeup( void )", "void wakeup( [out] int32_t w, [in] int32_t w )"),
    # celltypes: ports, attrs and vars repeated; odd `$` in a default or a write
    ("    entry sSensor eSensor;\n", "    entry sSensor eSensor;\n    entry sSensor eSensor;\n"),
    ("    [inline] entry sTask eTask;\n",
     "    [inline] entry sTask eTask;\n    call sTask eTask;\n"),
    ("        [omit] PRI priority;\n",
     "        [omit] PRI priority;\n        [omit] PRI priority;\n"),
    ("C_EXP(\"None\");\n", "C_EXP(\"None\");\n        int32_t ult = 0;\n"),
    ("C_EXP(\"TSKID_$id$\")", "C_EXP(\"TSKID_$id\")"),
    ("PBIO_PORT_ID_$port$\")", "PBIO_PORT_ID_$port$$\")"),
    ("write(\"tecsgen.cfg\"", "write(\"tecsgen$.cfg\""),
    ("write(\"tecsgen.cfg\"", "write(\"tecs\\ngen$.cfg\""),  # quoted with its escape
    ("write(\"$ct$_factory.h\"", "write(\"\""),
    ("\"#include \\\"kernel_cfg.h\\\"\"", "\"#include $\""),
    # literals Rust reads otherwise, in defaults, var initializers and cell initializers
    ("[omit] PRI priority;", "[omit] PRI priority = 010;"),
    ("[omit] size_t stackSize;", "[omit] size_t stackSize = 0X1F;"),
    ("= C_EXP(\"None\")", "= 0x"),
    ("= C_EXP(\"TA_NULL\")", "= -010"),
    ("    id = 1;\n", "    id = 0x;\n"),
    ("    id = 1;\n", "    id = 0X1F;\n"),
    ("    id = 1;\n", "    id = -010;\n"),
    ("    id = 1;\n", "    id = 0x1F;\n"),
    ("    id = 1;\n", "    id = 0;\n"),
    ("    id = 1;\n", "    id = 1\u00b2;\n"),
    ("[omit] PRI priority;", "[omit] PRI priority = -\u0663;"),
    # cells: bindings and initializers repeated, odd `$` in an initializer
    ("    cPowerdown = Powerdown.ePowerdown2;\n",
     "    cPowerdown = Powerdown.ePowerdown2;\n    cPowerdown = Powerdown.ePowerdown2;\n"),
    ("    cTaskBody = MainBody.eBody;\n",
     "    cTaskBody = MainBody.eBody;\n    cTaskBody = MainBody.eBody;\n"),
    ("    id = 1;\n", "    id = 1;\n    id = 2;\n"),
    ("    priority = C_EXP(\"MID_PRIORITY\");\n",
     "    priority = C_EXP(\"MID_PRIORITY\");\n    stackSize = 1;\n    priority = 3;\n"),
    ("C_EXP(\"TA_ACT\")", "C_EXP(\"TA_$ACT\")"),
    ("C_EXP(\"pbio_port_id_t::PBIO_PORT_ID_B\")", "C_EXP(\"$B$\")"),
    ("cell tPowerdown Powerdown {\n", "cell tPowerdown Powerdown {\n    n = 1;\n    n = 1;\n"),
    # plugins, on celltypes and on cells
    ("RustGenPlugin", "RustGen"),
    ("ItronrsGenPlugin", "ItronGenPlugin"),
    ("\"lib\")]\ncell", "\"lib\")]\n[generate(NoPlugin, \"x\")]\ncell"),
]


def _diagnostics(diags, shown=str):
    return [(d.code, shown(d.message), str(d.location), d.severity) for d in diags]


def _same(unit):
    # the reference quotes CDL text raw; tecsrust shows its control characters as escapes
    assert _diagnostics(validate_unit(unit)) == _diagnostics(
        reference_validate.validate_unit(unit), printable)


def mutant(rng: random.Random):
    name = rng.choice(sorted(GOLDENS))
    text = GOLDENS[name]
    for _ in range(rng.randint(1, 4)):
        old, new = rng.choice([e for e in EDITS if e[0] in text])
        starts = [i for i in range(len(text)) if text.startswith(old, i)]
        at = rng.choice(starts)
        text = text[:at] + new + text[at + len(old):]
    return name, text


def test_validate_matches_the_reference_on_golden_mutants():
    rng = random.Random("validate")
    codes, compared = set(), 0
    for _ in range(600):
        name, text = mutant(rng)
        unit = parse_unit(text, name).unit
        if unit is None:
            continue
        _same(unit)
        compared += 1
        codes |= {d.code for d in validate_unit(unit)}
    assert compared >= 500
    assert codes == {
        "duplicate-function", "duplicate-param", "out-requires-pointer", "pointer-depth",
        "duplicate-port", "duplicate-attr", "duplicate-var", "unbalanced-macro",
        "empty-write-target", "bad-integer", "duplicate-binding", "duplicate-attr-init",
        "unknown-plugin"}


def test_validate_matches_the_reference_on_the_goldens():
    for name, text in GOLDENS.items():
        unit = parse_unit(text, name).unit
        assert validate_unit(unit) == reference_validate.validate_unit(unit) == []


@settings(max_examples=60, deadline=None)
@given(st.one_of(cdl_units(), cdl_units_with_gaps(), colliding_units()))
def test_validate_matches_the_reference_on_generated_units(unit):
    _same(unit)
