import pytest

from tecsrust import naming
from tecsrust.emit_core import emit_contract
from tecsrust.frontend import parse_unit
from tecsrust.linker import resolve
from tecsrust.model import (
    CelltypeDef, FunctionDecl, ParamDecl, ParamSpecifier, PortDecl, PortDirection, SignatureDef,
    VarDecl,
)


def _resolve_diags(text):
    return resolve([parse_unit(text, "n.cdl").unit])


@pytest.mark.parametrize("sig,expected", [
    ("sSensor", "SSensor"),
    ("sPowerdown", "SPowerdown"),
    ("sTask_body", "STaskBody"),
])
def test_contract_name(sig, expected):
    assert naming.contract_name(sig) == expected


@pytest.mark.parametrize("ct,expected", [
    ("tSensor", "TSensor"),
    ("tPowerdown", "TPowerdown"),
    ("tTask_rs", "TTaskRs"),
])
def test_record_name(ct, expected):
    assert naming.record_name(ct) == expected


def test_short_names_are_rejected():
    # naming maps any name; resolve rejects the one-character ones it would map
    assert naming.contract_name("s") == "S"
    model, diags = _resolve_diags("""
signature s { void f( void ); };
[generate(RustGenPlugin, "lib")]
celltype tA { entry s eA; };
""")
    assert model is None
    assert [str(d) for d in diags] == [
        "n.cdl:2:1: error[bad-name]: signature name 's' too short"]


@pytest.mark.parametrize("name,expected", [
    ("cPowerdown", "c_powerdown"),
    ("port", "port"),
    ("cTaskBody", "c_task_body"),
])
def test_field_name(name, expected):
    assert naming.field_name(name) == expected


@pytest.mark.parametrize("entry,ct,expected", [
    ("eSensor", "tSensor", "ESensorForTSensor"),
    ("ePowerdown2", "tPowerdown", "EPowerdown2ForTPowerdown"),
    ("eTask", "tTask_rs", "ETaskForTTaskRs"),
])
def test_entry_impl_name(entry, ct, expected):
    assert naming.entry_impl_name(entry, ct) == expected


def _celltype(*entries, vars_=True):
    return CelltypeDef("tX", (), tuple(PortDecl(PortDirection.ENTRY, "sX", e) for e in entries),
                       vars=(VarDecl("n", "int32_t"),) * vars_)


def test_static_names_sensor():
    assert naming.cell_statics(_celltype("eSensor"), "Sensor") == [
        "SENSOR", "ESENSORFORSENSOR", "SENSORVAR"]
    assert naming.static_entry_name("eSensor", "Sensor") == "ESENSORFORSENSOR"


def test_static_names_powerdown():
    # the record, each entry port in declaration order, then the var record
    assert naming.cell_statics(_celltype("ePowerdown2", "eAlso"), "Powerdown") == [
        "POWERDOWN", "EPOWERDOWN2FORPOWERDOWN", "EALSOFORPOWERDOWN", "POWERDOWNVAR"]
    assert naming.cell_statics(_celltype("ePowerdown2", vars_=False), "Powerdown") == [
        "POWERDOWN", "EPOWERDOWN2FORPOWERDOWN"]


def test_static_names_no_entries():
    # a cell without entry ports still owes its instance and var statics
    assert naming.cell_statics(_celltype(), "X2go") == ["X2GO", "X2GOVAR"]
    assert naming.cell_statics(_celltype(vars_=False), "X2go") == ["X2GO"]


def test_static_names_keep_underscores():
    assert naming.cell_statics(_celltype(vars_=False), "Sensor_2") == ["SENSOR_2"]


@pytest.mark.parametrize("kind,name,expected", [
    ("contract", "sSensor", "s_sensor.rs"),
    ("definition", "tSensor", "t_sensor.rs"),
    ("skeleton", "tSensor", "t_sensor_impl.rs"),
])
def test_file_name(kind, name, expected):
    assert naming.file_name(kind, name) == expected


@pytest.mark.parametrize("c_type,depth,spec,expected", [
    ("int32_t", 0, ParamSpecifier.IN, "&i32"),
    ("int32_t", 1, ParamSpecifier.OUT, "&mut i32"),
    ("pbio_port_id_t", 0, ParamSpecifier.IN, "&pbio_port_id_t"),
    ("uint8_t", 0, ParamSpecifier.IN, "&u8"),
    ("double", 1, ParamSpecifier.OUT, "&mut f64"),
])
def test_map_param_type(c_type, depth, spec, expected):
    assert naming.map_param_type(c_type, spec) == expected
    # the declared pointer level is consumed by the borrow, never added to it
    param = ParamDecl(spec, c_type, depth, "x")
    sig = SignatureDef("sX", (FunctionDecl("f", "void", (param,)),))
    assert f"fn f(&self, x: {expected});" in emit_contract(sig).content


@pytest.mark.parametrize("mangled,expected", [
    ("Option_Ref_a_mut__pup_device_t__", "Option<&'a mut pup_device_t>"),
    ("i32", "i32"),
    ("Option_Ref_a_mut__foo_t__", "Option<&'a mut foo_t>"),
    ("TaskRef", "TaskRef"),
])
def test_demangle_var_type(mangled, expected):
    assert naming.demangle_var_type(mangled) == expected


def test_demangle_rejects_residue():
    # demangling passes the residue through; resolve reports it, located at
    # the celltype, naming the part under the Option_ wrappers
    assert naming.demangle_var_type("Ref_b_const__x__") == "Ref_b_const__x__"
    assert naming.unrecognized_mangling("Option_Ref_b_const__x__") == "Ref_b_const__x__"
    assert naming.unrecognized_mangling("Option_Ref_a_mut__x__") is None
    model, diags = _resolve_diags("""
[generate(RustGenPlugin, "lib")]
celltype tV {
    var { Option_Ref_b_const__x__ v = C_EXP("None"); };
};
""")
    assert model is None
    assert [str(d) for d in diags] == [
        "n.cdl:3:1: error[unrecognized-mangling]: cannot demangle var type "
        "'Ref_b_const__x__'"]


def test_snake_case_is_idempotent():
    for name in ["cPowerdown", "tTask_rs", "eSensor", "already_snake"]:
        once = naming.snake_case(name)
        assert naming.snake_case(once) == once


def test_uppercase_is_idempotent():
    [name] = naming.cell_statics(_celltype(vars_=False), "Sensor_2")
    assert naming.cell_statics(_celltype(vars_=False), name) == [name]


def test_entry_impl_names_are_injective_on_corpus():
    pairs = [("eSensor", "tSensor"), ("eSensor", "tPowerdown"),
             ("ePowerdown2", "tPowerdown"), ("eTask", "tTask_rs"),
             ("eiTask", "tTask_rs")]
    names = [naming.entry_impl_name(e, c) for e, c in pairs]
    assert len(set(names)) == len(names)


def test_contract_name_never_starts_with_digit():
    assert not naming.contract_name("s2ndSensor")[0].isdigit()
