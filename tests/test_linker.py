from hypothesis import given, settings

from strategies import brute_force_counts, cdl_units
from tecsrust.cli import generate
from tecsrust.emit_core import emit_definition
from tecsrust.frontend import parse_unit
from tecsrust.linker import plan_emission, resolve
from tecsrust.model import CdlUnit


def _units(text, name="test.cdl"):
    result = parse_unit(text, name)
    assert result.unit is not None, result.diagnostics
    return [result.unit]


def _resolve_ok(text):
    model, diags = resolve(_units(text))
    assert model is not None, diags
    return model


def _error_codes(text):
    model, diags = resolve(_units(text))
    return model, [d.code for d in diags]


MINIMAL = """
signature sA { void f( void ); };
[generate(RustGenPlugin, "lib")]
celltype tProv { entry sA eA; };
[generate(RustGenPlugin, "lib")]
celltype tCons { call sA cA; };
[generate(RustGenPlugin, "lib")]
cell tProv P {};
[generate(RustGenPlugin, "lib")]
cell tCons C { cA = P.eA; };
"""


def test_resolve_sample(sample_text):
    model, diags = resolve([parse_unit(sample_text, "sample.cdl").unit])
    assert diags == []
    sensor = next(c for c in model.cells if c.cell.name == "Sensor")
    rb = sensor.bindings["cPowerdown"]
    assert rb.target_cell.cell.name == "Powerdown"
    assert rb.target_entry.port_name == "ePowerdown2"
    assert rb.call_port.signature_name == rb.target_entry.signature_name


def test_empty_model_resolves():
    model, diags = resolve([CdlUnit()])
    assert diags == []
    assert model.cells == []


def test_signature_mismatch_is_an_error():
    text = """
    signature sA { void f( void ); };
    signature sB { void g( void ); };
    celltype tProv { entry sB eB; };
    celltype tCons { call sA cA; };
    cell tProv P {};
    cell tCons C { cA = P.eB; };
    """
    model, codes = _error_codes(text)
    assert model is None
    assert codes == ["signature-mismatch"]


def test_unbound_call_port_is_an_error():
    text = """
    signature sA { void f( void ); };
    celltype tCons { call sA cA; };
    cell tCons C {};
    """
    model, codes = _error_codes(text)
    assert model is None
    assert codes == ["unbound-call-port"]


def test_unknown_names_each_reported():
    text = """
    signature sA { void f( void ); };
    celltype tProv { entry sA eA; };
    cell tProv P {};
    cell tNope X {};
    cell tProv P2 {};
    cell tProv P2 {};
    """
    _, codes = _error_codes(text)
    assert "unknown-celltype" in codes
    assert "duplicate-cell" in codes


def test_unknown_entry_port_and_cell():
    text = """
    signature sA { void f( void ); };
    celltype tProv { entry sA eA; };
    celltype tCons { call sA cA; };
    cell tProv P {};
    cell tCons C1 { cA = P.eNope; };
    cell tCons C2 { cA = Ghost.eA; };
    """
    _, codes = _error_codes(text)
    assert "unknown-entry-port" in codes
    assert "unknown-cell" in codes


def test_heterogeneous_binding_is_rejected():
    text = """
    signature sA { void f( void ); };
    celltype tProv1 { entry sA eA; };
    celltype tProv2 { entry sA eA; };
    celltype tCons { call sA cA; };
    cell tProv1 P1 {};
    cell tProv2 P2 {};
    cell tCons C1 { cA = P1.eA; };
    cell tCons C2 { cA = P2.eA; };
    """
    _, codes = _error_codes(text)
    assert codes == ["heterogeneous-binding-unsupported"]


def test_conflicting_plugin_directives_are_rejected():
    text = """
    signature sA { void f( void ); };
    [generate(RustGenPlugin, "lib")]
    celltype tProv { entry sA eA; };
    [generate(ItronrsGenPlugin, "lib")]
    cell tProv P {};
    """
    _, codes = _error_codes(text)
    assert codes == ["conflicting-plugin-directives"]


def test_celltype_directive_governs_cells_without_one():
    text = MINIMAL.replace('[generate(RustGenPlugin, "lib")]\ncell tProv P {};',
                           "cell tProv P {};")
    model = _resolve_ok(text)
    assert model.plugin_by_celltype["tProv"] == "RustGenPlugin"


def test_default_plugin_applies_only_without_directives():
    text = """
    signature sA { void f( void ); };
    celltype tProv { entry sA eA; };
    cell tProv P {};
    """
    model, _ = resolve(_units(text), default_plugin="RustGenPlugin")
    assert model.plugin_by_celltype == {"tProv": "RustGenPlugin"}
    model, _ = resolve(_units(text))
    assert model.plugin_by_celltype == {}


def test_plan_for_sample(sample_text):
    model, _ = resolve([parse_unit(sample_text, "sample.cdl").unit])
    plan = plan_emission(model)
    assert sorted(plan.contract_files()) == ["s_powerdown.rs", "s_sensor.rs"]
    assert sorted(plan.definition_files()) == ["t_powerdown.rs", "t_sensor.rs"]
    assert sorted(plan.skeleton_files()) == ["t_powerdown_impl.rs", "t_sensor_impl.rs"]


def test_celltype_without_entry_ports_has_no_skeleton():
    model = _resolve_ok(MINIMAL)
    plan = plan_emission(model)
    assert plan.skeleton_files() == ["t_prov_impl.rs"]
    assert "t_cons_impl.rs" not in plan.skeleton_files()


def test_two_cells_share_one_definition_file():
    text = MINIMAL + '[generate(RustGenPlugin, "lib")]\ncell tCons C2 { cA = P.eA; };\n'
    model = _resolve_ok(text)
    plan = plan_emission(model)
    assert plan.definition_files().count("t_cons.rs") == 1
    assert len(model.cells_of("tCons")) == 2


def test_factory_write_order(kernel_text):
    model, diags = resolve([parse_unit(kernel_text, "kernel_rs.cdl").unit])
    assert diags == []
    plan = plan_emission(model)
    # per-celltype FACTORY writes come before any per-cell factory writes
    kinds = ["FACTORY" if w.cell is None else "factory" for w in plan.config_writes]
    assert kinds == sorted(kinds, key=lambda k: k != "FACTORY")


@settings(max_examples=40, deadline=None)
@given(cdl_units())
def test_plan_cardinalities_match_brute_force(unit):
    model, diags = resolve([unit])
    assert model is not None, diags
    plan = plan_emission(model)
    n_sigs, n_defs, n_skels = brute_force_counts(unit)
    assert len(plan.contract_files()) == n_sigs
    assert len(plan.definition_files()) == n_defs
    assert len(plan.skeleton_files()) == n_skels


INTERLEAVED = ("""
signature sA { void f( void ); };
[generate(RustGenPlugin, "lib")]
celltype tP { entry sA eA; attr { int32_t n = 0; }; };
[generate(RustGenPlugin, "lib")]
celltype tQ { entry sA eA; };
[generate(RustGenPlugin, "lib")]
celltype tC { call sA cA; entry sA eC; attr { int32_t k = 1; }; };
cell tP P1 { n = 5; };
cell tC C1 { cA = P1.eA; k = 7; };
cell tQ Q1 {};
cell tC C2 { cA = P1.eA; };
""", """
cell tP P2 {};
cell tC C3 { cA = P2.eA; k = 9; };
cell tQ Q2 {};
""")


def test_cells_of_keeps_declaration_order_across_units():
    units = [parse_unit(text, f"u{i}.cdl").unit for i, text in enumerate(INTERLEAVED)]
    model, diags = resolve(units)
    assert diags == []
    names = {ct: [rc.cell.name for rc in model.cells_of(ct)] for ct in ("tP", "tQ", "tC")}
    assert names == {"tP": ["P1", "P2"], "tQ": ["Q1", "Q2"], "tC": ["C1", "C2", "C3"]}
    files = {f.path: f.content for f in generate(list(zip(("u0.cdl", "u1.cdl"), INTERLEAVED)))[0]}
    for ct in model.celltype_index.values():
        scanned = [rc for rc in model.cells if rc.celltype is ct]  # the old linear scan
        expected = emit_definition(ct, scanned, model)
        assert emit_definition(ct, model.cells_of(ct.name), model).content == expected.content
        assert files[expected.path] == expected.content


def test_heterogeneous_binding_diagnostics_keep_order_and_location():
    text = """
signature sA { void f( void ); };
celltype tP { entry sA eA; };
celltype tQ { entry sA eA; };
celltype tC { call sA cA; };
celltype tD {
    call sA cX;
    call sA cY;
};
cell tP P1 {};
cell tQ Q1 {};
cell tD D1 { cX = Q1.eA; cY = P1.eA; };
cell tC C1 { cA = Q1.eA; };
cell tC C2 { cA = P1.eA; };
cell tD D2 { cX = P1.eA; cY = P1.eA; };
"""
    model, diags = resolve(_units(text, "h.cdl"))
    assert model is None
    assert [str(d) for d in diags] == [
        "h.cdl:5:15: error[heterogeneous-binding-unsupported]: call port 'cA' of "
        "celltype 'tC' binds cells of different celltypes (tP, tQ)",
        "h.cdl:7:5: error[heterogeneous-binding-unsupported]: call port 'cX' of "
        "celltype 'tD' binds cells of different celltypes (tP, tQ)",
    ]
