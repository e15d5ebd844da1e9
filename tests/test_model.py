import pytest

from tecsrust.frontend import parse_unit
from tecsrust.model import (
    CdlUnit, FunctionDecl, ParamDecl, ParamSpecifier, PluginDirective,
    PortDecl, PortDirection, CelltypeDef, SignatureDef, Severity, validate_unit,
)

SIG_TEXT = """
signature sSensor {
    void set_device_ref( void );
    void get_distance( [out] int32_t* distance );
    void light_on( void );
    void light_set( [in] int32_t bv1, [in] int32_t bv2, [in] int32_t bv3, [in] int32_t bv4 );
    void light_off( void );
};
"""


def _param(spec, depth, name="x"):
    return ParamDecl(spec, "int32_t", depth, name)


def test_valid_signature_has_no_diagnostics():
    unit = parse_unit(SIG_TEXT, "sig.cdl").unit
    assert validate_unit(unit) == []


def test_empty_unit_is_vacuously_valid():
    assert validate_unit(CdlUnit()) == []


def test_out_param_without_pointer_is_an_error():
    fn = FunctionDecl("f", "void", (_param(ParamSpecifier.OUT, 0, "distance"),))
    unit = CdlUnit(signatures=(SignatureDef("sX", (fn,)),))
    diags = validate_unit(unit)
    assert len(diags) == 1
    assert diags[0].code == "out-requires-pointer"
    assert diags[0].severity is Severity.ERROR


def test_double_pointer_is_rejected():
    fn = FunctionDecl("f", "void", (_param(ParamSpecifier.OUT, 2),))
    codes = {d.code for d in validate_unit(
        CdlUnit(signatures=(SignatureDef("sX", (fn,)),)))}
    assert codes == {"pointer-depth"}


def test_duplicate_function_names_are_errors():
    fns = (FunctionDecl("f", "void", ()), FunctionDecl("f", "void", ()))
    diags = validate_unit(CdlUnit(signatures=(SignatureDef("sX", fns),)))
    assert [d.code for d in diags] == ["duplicate-function"]


def test_duplicate_param_names_are_errors():
    fn = FunctionDecl("f", "void", (
        _param(ParamSpecifier.IN, 0, "a"), _param(ParamSpecifier.IN, 0, "a")))
    diags = validate_unit(CdlUnit(signatures=(SignatureDef("sX", (fn,)),)))
    assert [d.code for d in diags] == ["duplicate-param"]


def test_duplicate_port_names_across_both_lists():
    ct = CelltypeDef(
        "tX",
        call_ports=(PortDecl(PortDirection.CALL, "sA", "p"),),
        entry_ports=(PortDecl(PortDirection.ENTRY, "sB", "p"),))
    diags = validate_unit(CdlUnit(celltypes=(ct,)))
    assert [d.code for d in diags] == ["duplicate-port"]


def test_unknown_plugin_is_an_error():
    ct = CelltypeDef("tX", generate_directive=PluginDirective("NoSuchPlugin", "lib"))
    diags = validate_unit(CdlUnit(celltypes=(ct,)))
    assert [d.code for d in diags] == ["unknown-plugin"]


def test_units_compare_structurally():
    a = parse_unit(SIG_TEXT, "a.cdl").unit
    b = parse_unit(SIG_TEXT, "b.cdl").unit
    assert a == b


@pytest.mark.parametrize("text, message, column", [
    ("celltype tA { attr { int32_t x = 0x; }; };",
     "integer literal '0x' in default of attr 'x' has no digits", 22),
    ("celltype tA { var { int32_t x = -0X; }; };",
     "integer literal '-0X' in default of var 'x' has no digits", 21),
    ("celltype tA { attr { int32_t x; }; };\ncell tA A { x = -0x; };",
     "integer literal '-0x' in initializer of 'x' has no digits", 13),
], ids=["attr-default", "var-default", "cell-initializer"])
def test_integer_literal_without_digits_is_rejected(text, message, column):
    diags = validate_unit(parse_unit(text, "lit.cdl").unit)
    assert [(d.code, d.message) for d in diags] == [("bad-integer", message)]
    assert (diags[0].location.file, diags[0].location.column) == ("lit.cdl", column)
    assert validate_unit(parse_unit(text.replace("0x", "0x1").replace("0X", "0X1")).unit) == []
