import ast
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_definition
from conftest import golden
from records import replace
from rustc_check import rustc_check, rustc_check_tree
from strategies import cdl_units
from tecsrust import emit_core, emit_rtos
from tecsrust.cli import generate
from tecsrust.emit_core import WritePolicy, emit_contract, emit_skeleton, skeleton_lines
from tecsrust.frontend import parse_unit
from tecsrust.linker import plan_emission, resolve
from tecsrust.model import PortDecl, PortDirection, SignatureDef

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _gen(text, name="test.cdl"):
    files, plan, model, diags = generate([(name, text)])
    assert not [d for d in diags], diags
    return {f.path: f for f in files}


def test_contract_matches_figure(sample_outputs):
    files, _, _ = sample_outputs
    assert files["s_sensor.rs"].content == golden("s_sensor.rs")
    assert files["s_sensor.rs"].policy is WritePolicy.OVERWRITE


def test_contract_for_empty_signature():
    f = emit_contract(SignatureDef("sNothing", ()))
    assert f.content == "pub trait SNothing {\n}\n"


def test_contract_single_out_param():
    text = "signature sOne { void f( [out] int32_t* x ); };"
    sig = parse_unit(text).unit.signatures[0]
    assert emit_contract(sig).content == (
        "pub trait SOne {\n  fn f(&self, x: &mut i32);\n}\n")


def test_golden_contract_compiles(tmp_path):
    rustc_check(golden("s_sensor.rs"), tmp_path)


def test_rustc_check_rejects_a_bare_keyword(tmp_path):
    with pytest.raises(AssertionError, match="expected identifier, found keyword"):
        rustc_check("pub trait SKw {\n  fn match(&self);\n}\n", tmp_path)


KEYWORD_TEXT = """signature sKw {
    void match( [in] int32_t type );
};
[generate(RustGenPlugin, "lib")]
celltype tKw {
    entry sKw eKw;
    call sKw Type;
    attr { int32_t loop = 1; [omit] int32_t fn = 2; };
    var { int32_t dyn = 0; };
};
cell tKw Kw { Type = Kw.eKw; };
"""


def test_rust_keywords_are_raw_identifiers(tmp_path):
    files = _gen(KEYWORD_TEXT)
    contract = files["s_kw.rs"].content
    assert contract == "pub trait SKw {\n  fn r#match(&self, r#type: &i32);\n}\n"
    rustc_check(contract, tmp_path)
    definition = files["t_kw.rs"].content
    for line in ["  pub r#type: &'a T,", "  pub r#loop: i32,", "  pub r#dyn: int32_t,",
                 "  r#type: &EKWFORKW,", "  r#loop: 1,", "  r#dyn: 0,",
                 "    (&self.r#type, &self.r#loop, self.variable)"]:
        assert line in definition.splitlines()
    assert "fn r#match(&self, r#type: &i32) {" in files["t_kw_impl.rs"].content


KEYWORD_MODULE_TEXT = """signature sA { void f( [in] int32_t x ); };
[generate(RustGenPlugin, "lib")]
celltype match { entry sA eA; attr { int32_t n = 1; }; };
[generate(RustGenPlugin, "lib")]
celltype tUser { call sA cA; };
cell match M1 {};
cell tUser U1 { cA = M1.eA; };
"""


def test_keyword_module_names_are_raw_identifiers(tmp_path):
    files = _gen(KEYWORD_MODULE_TEXT)
    assert "use crate::{r#match::*, s_a::*};" in files["match_impl.rs"].content.splitlines()
    assert "use crate::{s_a::*, r#match::*};" in files["t_user.rs"].content.splitlines()
    rustc_check_tree({path: f.content for path, f in files.items()}, tmp_path)


# var-free, so the tree needs no `spin` crate: two providers bound across to one user
BOUND_ACROSS_TEXT = """signature sSensor {
    void read( [out] int32_t *value, [in] uint8_t channel );
    void reset( void );
};
signature sLog { void put( [in] int64_t code ); };
[generate(RustGenPlugin, "lib")]
celltype tSensor { entry sSensor eSensor; attr { int32_t port = 0; uint8_t gain; }; };
[generate(RustGenPlugin, "lib")]
celltype tLog { entry sLog eLog; };
[generate(RustGenPlugin, "lib")]
celltype tApp {
    call sSensor cSensor;
    call sLog cLog;
    entry sLog eForward;
    attr { double scale = C_EXP("1.5"); };
};
cell tSensor S1 { gain = 2; };
cell tSensor S2 { port = 3; gain = 4; };
cell tLog L {};
cell tApp A1 { cSensor = S1.eSensor; cLog = L.eLog; };
cell tApp A2 { cSensor = S2.eSensor; cLog = L.eLog; scale = C_EXP("0.5"); };
"""


def test_tree_bound_across_celltypes_compiles(tmp_path):
    files = _gen(BOUND_ACROSS_TEXT)
    assert sorted(files) == ["s_log.rs", "s_sensor.rs", "t_app.rs", "t_app_impl.rs",
                             "t_log.rs", "t_log_impl.rs", "t_sensor.rs", "t_sensor_impl.rs"]
    rustc_check_tree({path: f.content for path, f in files.items()}, tmp_path)


def test_rustc_check_tree_rejects_a_bare_keyword_module(tmp_path):
    files = {"match.rs": "pub struct M;\n", "user.rs": "use crate::{match::*};\n"}
    with pytest.raises(AssertionError, match="expected identifier, found keyword"):
        rustc_check_tree(files, tmp_path)


def test_definition_matches_figure(sample_outputs):
    files, _, _ = sample_outputs
    assert files["t_sensor.rs"].content == golden("t_sensor.rs")


def test_definition_without_vars_has_no_variable_record(sample_outputs):
    files, _, _ = sample_outputs
    content = files["t_powerdown.rs"].content
    assert "Var" not in content
    assert "Mutex" not in content
    assert "variable" not in content
    assert "POWERDOWNVAR" not in content


def test_two_cells_emit_two_instantiations(sample_text):
    text = sample_text + """
[generate(RustGenPlugin, "lib")]
cell tSensor Sensor2 {
    cPowerdown = Powerdown.ePowerdown2;
    port = C_EXP("pbio_port_id_t::PBIO_PORT_ID_C");
};
"""
    files = _gen(text)
    content = files["t_sensor.rs"].content
    for static in ["SENSOR:", "SENSORVAR:", "ESENSORFORSENSOR:",
                   "SENSOR2:", "SENSOR2VAR:", "ESENSORFORSENSOR2:"]:
        assert f"pub static {static}" in content
    assert content.count("pub struct TSensor<") == 1


@settings(max_examples=80, deadline=None)
@given(cdl_units())
def test_definitions_match_the_line_by_line_reference(unit):
    # every celltype generates; attr, var and cell texts draw `%`, `%s`, `{}`, `\\` and NUL
    model, diags = resolve([unit], "RustGenPlugin")
    assert model is not None, diags
    for ct in plan_emission(model).definition_cts:
        cells = model.cells_of(ct.name)
        got = emit_core.emit_definition(ct, cells, model)
        assert got == reference_definition.emit_definition(ct, cells, model)


def test_format_characters_in_a_var_default_and_attr_texts_are_verbatim():
    text = """signature sA { void f( void ); };
[generate(RustGenPlugin, "lib")]
celltype tP { entry sA eA; };
[generate(RustGenPlugin, "lib")]
celltype tX {
    call sA cA;
    entry sA eX;
    attr { int32_t k = C_EXP("K %s %% {}"); };
    var { int32_t n = C_EXP("a % b"); };
};
cell tP P1 {};
cell tX X1 { cA = P1.eA; };
cell tX X2 { cA = P1.eA; k = C_EXP("%d % $cell$"); };
"""
    _, _, model, diags = generate([("pct.cdl", text)])
    assert not diags
    ct = model.celltype_index["tX"]
    got = emit_core.emit_definition(ct, model.cells_of("tX"), model)
    assert got == reference_definition.emit_definition(ct, model.cells_of("tX"), model)
    assert got.content.count("  n: a % b,\n") == 2
    assert "  k: K %s %% {},\n" in got.content and "  k: %d % X2,\n" in got.content


def test_skeleton_matches_figure(sample_outputs):
    files, _, _ = sample_outputs
    f = files["t_sensor_impl.rs"]
    assert f.content == golden("t_sensor_impl.rs")
    assert f.policy is WritePolicy.SKIP_IF_EXISTS


def test_skeleton_two_entry_ports_two_impl_blocks():
    text = """
signature sA { void f( void ); };
signature sB { void g( void ); };
[generate(RustGenPlugin, "lib")]
celltype tBoth { entry sA eA; entry sB eB; };
[generate(RustGenPlugin, "lib")]
cell tBoth Only {};
"""
    files = _gen(text)
    content = files["t_both_impl.rs"].content
    assert content.count("impl ") == 2
    assert "impl SA for EAForTBoth<'_>{" in content
    assert "impl SB for EBForTBoth<'_>{" in content


def _assert_skeleton_line_count_law(model):
    """`skeleton_lines` counts, from the model alone, the lines `emit_skeleton` renders."""
    cts = plan_emission(model).skeleton_cts
    assert cts
    for ct in cts:
        assert skeleton_lines(ct, model) == emit_skeleton(ct, model).content.count("\n"), ct.name


def test_skeleton_line_count_law_on_goldens(sample_outputs, kernel_outputs):
    for _, _, model in (sample_outputs, kernel_outputs):
        _assert_skeleton_line_count_law(model)


def test_skeleton_line_count_law_on_vars_and_an_empty_signature():
    text = """
signature sNone { };
signature sA { void f( void ); int32_t g( [in] int32_t x, [out] int32_t* y ); };
[generate(RustGenPlugin, "lib")]
celltype tMany { entry sNone eFirst; entry sA eA; entry sNone eNone; var { i32 n = 0; }; };
[generate(RustGenPlugin, "lib")]
celltype tOnlyNone { entry sNone eNone; };
cell tMany m {};
cell tOnlyNone o {};
"""
    model, diags = resolve([parse_unit(text, "law.cdl").unit])
    assert model is not None, diags
    _assert_skeleton_line_count_law(model)


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("name", ["app_16k", "rtos_tasks", "api_regen"])
def test_skeleton_line_count_law_on_workloads(name, seed):
    _, _, model, diags = generate(list(workloads.build(name, seed, 0.05).sources.items()))
    assert not diags, diags
    _assert_skeleton_line_count_law(model)


@st.composite
def _units_with_an_empty_signature(draw):
    """A `cdl_units` unit whose first provider also has an entry port of `sNone`, a
    signature with no functions, at a drawn place among its entry ports."""
    unit = draw(cdl_units())
    prov = unit.celltypes[0]
    at = draw(st.integers(0, len(prov.entry_ports)))
    entries = (*prov.entry_ports[:at], PortDecl(PortDirection.ENTRY, "sNone", "eNone"),
               *prov.entry_ports[at:])
    return replace(unit, signatures=(*unit.signatures, SignatureDef("sNone", ())),
                   celltypes=(replace(prov, entry_ports=entries), *unit.celltypes[1:]))


@settings(max_examples=60, deadline=None)
@given(_units_with_an_empty_signature())
def test_skeleton_line_count_law_on_generated_units(unit):
    # consumers draw vars and zero to two entry ports; providers one to three. With a
    # default plugin every celltype generates, not only those with a directive.
    model, diags = resolve([unit], "RustGenPlugin")
    assert model is not None, diags
    _assert_skeleton_line_count_law(model)


def test_every_method_is_inlined(sample_outputs):
    files, _, _ = sample_outputs
    skeleton = files["t_sensor_impl.rs"].content
    assert skeleton.count("#[inline]") == skeleton.count("fn ")
    definition = files["t_sensor.rs"].content
    assert definition.count("#[inline]") == definition.count("pub fn get_cell_ref")


def test_omit_attrs_never_reach_records(kernel_outputs):
    files, _, _ = kernel_outputs
    content = files["t_task_rs.rs"].content
    for name in ["id", "attribute", "priority", "stackSize"]:
        assert f"pub {name}:" not in content
    assert "pub task_ref: TaskRef," in content


def test_mutable_state_only_in_variable_record(sample_outputs):
    files, _, _ = sample_outputs
    content = files["t_sensor.rs"].content
    main = content.split("pub struct TSensorVar")[0]
    assert "mut" not in main  # ROM side holds only references and attrs
    assert "Option<&'a mut pup_device_t>" in content


def test_emission_is_deterministic(sample_text):
    a = _gen(sample_text)
    b = _gen(sample_text)
    assert {p: f.content for p, f in a.items()} == {p: f.content for p, f in b.items()}


def test_uninitialized_attribute_is_an_error():
    text = """
[generate(RustGenPlugin, "lib")]
celltype tU { attr { int32_t a; }; };
[generate(RustGenPlugin, "lib")]
cell tU U1 {};
"""
    files, plan, model, diags = generate([("u.cdl", text)])
    assert files == []
    assert [d.code for d in diags] == ["uninitialized-attribute"]


def test_unbound_celltype_with_call_ports_cannot_emit():
    # no cell fixes the concrete entry type required by the entry record
    text = """
signature sA { void f( void ); };
[generate(RustGenPlugin, "lib")]
celltype tProv { entry sA eA; };
[generate(RustGenPlugin, "lib")]
celltype tCons { call sA cA; entry sA eC; };
[generate(RustGenPlugin, "lib")]
cell tProv P {};
"""
    files, plan, model, diags = generate([("x.cdl", text)])
    assert files == []
    assert [d.code for d in diags] == ["no-binding-context"]


def test_trailing_newline_invariant(sample_outputs):
    files, _, _ = sample_outputs
    for f in files.values():
        assert f.content.endswith("\n")
        assert not f.content.endswith("\n\n")


def test_emitters_are_total():
    # resolve reports everything an emitter could trip over, so emit_core
    # neither raises nor catches
    tree = ast.parse(Path(emit_core.__file__).read_text(encoding="utf-8"))
    handlers = (ast.Raise, ast.Try, getattr(ast, "TryStar", ast.Try))
    found = [(type(n).__name__, n.lineno) for n in ast.walk(tree) if isinstance(n, handlers)]
    assert found == []
    # and neither emitter module makes a diagnostic: resolve reports factory errors too
    for module in (emit_core, emit_rtos):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        names = [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                 if isinstance(n, (ast.Name, ast.Attribute))]
        calls = [n.func for n in ast.walk(tree) if isinstance(n, ast.Call)]
        called = [f.id if isinstance(f, ast.Name) else getattr(f, "attr", None) for f in calls]
        assert "Diagnostic" not in names, module.__name__
        assert not {"error", "warning"} & set(called), module.__name__


_SHAPE_PROVIDERS = """signature sA { void f( void ); };
signature sB { void g( [in] int32_t x ); };
[generate(RustGenPlugin, "lib")]
celltype tA { entry sA eA; };
[generate(RustGenPlugin, "lib")]
celltype tB { entry sB eB; };
cell tA a {};
cell tB b {};
"""


# definitions of every shape but a var type that borrows (`'a`): 0, 1 and 2 call ports,
# each with no members, attrs, vars (a `spin::Mutex` static per cell) and both. Var
# types are emitted as written, not mapped as attr types are, so these are Rust types.
@pytest.mark.parametrize("members", ["", "attr { int32_t k = 3; uint8_t u; };",
                                     "var { i32 n = 0; u8 m = 1; };",
                                     "attr { int64_t k = -2; }; var { u64 n = 1; };"],
                         ids=["plain", "attrs", "vars", "attrs-and-vars"])
@pytest.mark.parametrize("calls", [0, 1, 2])
def test_definitions_type_check_with_spin(tmp_path, spin_crate, calls, members):
    binds = " ".join(["cA = a.eA;", "c_b = b.eB;"][:calls])
    binds += " u = 7;" if "uint8_t u;" in members else ""  # an attr without a default
    unit = (_SHAPE_PROVIDERS + '[generate(RustGenPlugin, "lib")]\n'
            f"celltype tC {{ entry sA eC; {' '.join(['call sA cA;', 'call sB c_b;'][:calls])} "
            f"{members} }};\ncell tC c1 {{ {binds} }};\ncell tC c2 {{ {binds} }};\n")
    files = _gen(unit)
    assert ("use spin::Mutex;" in files["t_c.rs"].content) == ("var" in members)
    # the signatures return nothing, so the skeletons' empty bodies type-check too
    rustc_check_tree({path: f.content for path, f in files.items()}, tmp_path, spin_crate)


# a hand-written stand-in for the C types the golden sample passes through; the tree's
# `s_sensor` re-exports it, so `t_sensor.rs` finds them through its `s_sensor::*` import
PBIO_STUB = """#![allow(non_camel_case_types)]
pub enum pbio_port_id_t {
    PBIO_PORT_ID_B,
}
pub struct pup_device_t;
"""


def test_golden_tree_type_checks_but_for_a_shadowed_lifetime(sample_outputs, tmp_path, spin_crate):
    files, _, _ = sample_outputs
    tree = {path: f.content for path, f in files.items()}
    tree["pbio.rs"] = PBIO_STUB
    tree["s_sensor.rs"] += "pub use crate::pbio::*;\n"
    stderr = rustc_check_tree(tree, tmp_path, spin_crate, check=False)
    # Known failure: `get_cell_ref<'a>` in `t_sensor.rs` declares the `'a` its impl already
    # declares. Mending it makes this set empty; update the test then.
    assert set(re.findall(r"^error\[(E\d+)\]", stderr, re.M)) == {"E0496"}, stderr
    assert "lifetime name `'a` shadows a lifetime name that is already in scope" in stderr
