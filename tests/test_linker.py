import re

import pytest
from hypothesis import given, settings

from cdl_renderer import render_unit
from rustc_check import rustc_check_tree
from strategies import brute_force_counts, cdl_units, colliding_units, non_generating_bindings
from tecsrust import linker, naming
from tecsrust.cli import EXIT_DIAGNOSTICS, generate, run
from tecsrust.diagnostics import Severity
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


@pytest.mark.parametrize("b_directive", ["", '[generate(ItronrsGenPlugin, "")] '],
                         ids=["plain", "conflicting"])
def test_cell_directive_governs_a_celltype_without_one(b_directive):
    text = ('signature sS { void f( void ); };\ncelltype tT { entry sS eS; };\n'
            '[generate(RustGenPlugin, "")] cell tT A {};\n' + b_directive + "cell tT B {};\n")
    files, _, _, diags = generate([("x.cdl", text)])
    if not b_directive:  # the celltype takes A's plugin, and B follows it
        assert diags == [] and sorted(f.path for f in files) == ["s_s.rs", "t_t.rs", "t_t_impl.rs"]
    else:
        assert [str(d) for d in diags] == [
            "x.cdl:4:1: error[conflicting-plugin-directives]: cell 'B' requests plugin "
            "'ItronrsGenPlugin' but celltype 'tT' uses 'RustGenPlugin'"]


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
    assert sorted(naming.file_name("contract", s.name) for s in plan.contract_sigs) == [
        "s_powerdown.rs", "s_sensor.rs"]
    assert sorted(naming.file_name("definition", ct.name) for ct in plan.definition_cts) == [
        "t_powerdown.rs", "t_sensor.rs"]
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
    assert [naming.file_name("definition", ct.name)
            for ct in plan.definition_cts].count("t_cons.rs") == 1
    assert len(model.cells_of("tCons")) == 2


def test_factory_write_order(kernel_text):
    model, diags = resolve([parse_unit(kernel_text, "kernel_rs.cdl").unit])
    assert diags == []
    plan = plan_emission(model)
    # per-celltype FACTORY writes come before any per-cell factory writes
    kinds = ["FACTORY" if w.cell is None else "factory" for w in plan.config_writes]
    assert kinds == sorted(kinds, key=lambda k: k != "FACTORY")


@settings(max_examples=45, deadline=None)
@given(cdl_units())
def test_plan_cardinalities_match_brute_force(unit):
    model, diags = resolve([unit])
    stray = non_generating_bindings(unit)
    assert [d.message for d in diags if d.code == "non-generating-target"] == stray
    if stray:  # a binding into a celltype that generates no Rust stops the build
        assert model is None
        return
    assert model is not None, diags
    plan = plan_emission(model)
    n_sigs, n_defs, n_skels = brute_force_counts(unit)
    assert len([naming.file_name("contract", s.name) for s in plan.contract_sigs]) == n_sigs
    assert len([naming.file_name("definition", ct.name) for ct in plan.definition_cts]) == n_defs
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


EVERY_PROBLEM = """
signature sA { void f( void ); };
[generate(RustGenPlugin, "lib")]
celltype tP { entry sA eA; };
[generate(RustGenPlugin, "lib")]
celltype tM {
    attr { int32_t a; int32_t b; int32_t c = 1; };
    var { Ref_b_const__x__ odd = C_EXP("None"); int32_t n; };
};
[generate(RustGenPlugin, "lib")]
celltype tIdle { call sA cA; };
[generate(RustGenPlugin, "lib")]
celltype tC { call sA cA; };
cell tP P {};
cell tM M1 {};
cell tM M2 { c = C_EXP("K_$nope$"); };
cell tC C {};
"""


def test_one_pass_reports_every_problem():
    files, plan, model, diags = generate([("every.cdl", EVERY_PROBLEM)])
    assert files == [] and model is None
    assert [(d.code, d.location.line) for d in diags] == [
        ("unbound-call-port", 17),       # linking first
        ("unrecognized-mangling", 6),    # then tM, at the celltype
        ("uninitialized-attribute", 15),  # M1.a
        ("uninitialized-attribute", 15),  # M1.b
        ("uninitialized-attribute", 16),  # M2.a
        ("uninitialized-attribute", 16),  # M2.b
        ("unresolved-macro", 16),        # M2.c
        ("uninitialized-variable", 8),   # tM.n, once for both cells
        ("no-binding-context", 11),      # tIdle.cA: no cell fixes its type
    ]
    assert "attr 'b' of cell 'M2' has neither a default" in diags[5].message


def test_bad_name_is_reported_once_per_entity():
    # a generating celltype is reached through every binding to it; a celltype that
    # generates no Rust is never emitted, so its name is not checked
    text = """
signature sA { void f( void ); };
[generate(RustGenPlugin, "lib")]
celltype p { entry sA eA; };
celltype n { entry sA eA; };
[generate(RustGenPlugin, "lib")]
celltype tC { call sA cA; };
[generate(RustGenPlugin, "lib")]
celltype tD { call sA cA; };
cell p P1 {};
cell p P2 {};
cell n N1 {};
cell tC C1 { cA = P1.eA; };
cell tC C2 { cA = P2.eA; };
cell tD D1 { cA = N1.eA; };
"""
    model, diags = resolve(_units(text, "b.cdl"))
    assert model is None
    assert [str(d) for d in diags] == [
        "b.cdl:15:14: error[non-generating-target]: cell 'D1' binds 'cA' to cell 'N1', "
        "whose celltype 'n' generates no Rust",
        "b.cdl:4:1: error[bad-name]: celltype name 'p' too short"]


def test_each_binding_target_is_named_once_per_generating_celltype():
    text = """
signature sA { void f( void ); };
celltype tP { entry sA eA; };
celltype tQ { entry sA eA; };
[generate(RustGenPlugin, "lib")]
celltype tC { call sA cA; call sA cB; };
cell tQ Q1 {};
cell tP P1 {};
cell tP P2 {};
cell tC C1 { cA = Q1.eA; cB = P1.eA; };
cell tC C2 { cA = Q1.eA; cB = P2.eA; };
cell tC C3 { cB = P1.eA; cA = Q1.eA; };
"""
    resolved, diags = resolve(_units(text), "RustGenPlugin")
    assert diags == []
    generating = list(resolved.celltype_index.values())
    named = linker._named(generating, resolved.signature_index)
    assert [(kind, e.name) for kind, e in named] == [
        ("celltype", "tP"), ("signature", "sA"), ("celltype", "tQ"), ("signature", "sA"),
        ("celltype", "tC"), ("signature", "sA"), ("signature", "sA")]
    # with tC alone generating, each of its bindings is into a celltype that does not
    resolved, diags = resolve(_units(text))
    assert resolved is None
    assert [(d.code, d.location.line, d.message) for d in diags] == [
        ("non-generating-target", line, f"cell '{cell}' binds '{port}' to cell '{target}', "
         f"whose celltype '{target_ct}' generates no Rust")
        for line, cell, port, target, target_ct in [
            (10, "C1", "cA", "Q1", "tQ"), (10, "C1", "cB", "P1", "tP"),
            (11, "C2", "cA", "Q1", "tQ"), (11, "C2", "cB", "P2", "tP"),
            (12, "C3", "cB", "P1", "tP"), (12, "C3", "cA", "Q1", "tQ")]]


def test_names_rust_cannot_write_are_located_bad_names():
    # `r#` makes any other keyword an identifier, but not these five; a
    # keyword in an [omit] attr or a non-generating celltype is never emitted
    text = """signature sK {
    void self( [in] int32_t _, [in] int32_t super );
    void f( void );
};
celltype tOther { entry sK eK; attr { int32_t crate = 1; }; };
[generate(RustGenPlugin, "lib")]
celltype tK {
    entry sK eK;
    call sK Self;
    attr { int32_t crate = 1; [omit] int32_t self = 2; };
    var { int32_t Self = 0; };
};
cell tK K { Self = K.eK; };
"""
    model, diags = resolve(_units(text, "k.cdl"))
    assert model is None
    assert [str(d) for d in diags] == [
        "k.cdl:9:5: error[bad-name]: port name 'Self' is not a Rust identifier",
        "k.cdl:10:12: error[bad-name]: attr name 'crate' is not a Rust identifier",
        "k.cdl:11:11: error[bad-name]: var name 'Self' is not a Rust identifier",
        "k.cdl:2:10: error[bad-name]: function name 'self' is not a Rust identifier",
        "k.cdl:2:16: error[bad-name]: parameter name '_' is not a Rust identifier",
        "k.cdl:2:32: error[bad-name]: parameter name 'super' is not a Rust identifier"]


@pytest.mark.parametrize("members, first, second, consumer, statics", [
    ("", "tA ab", "tA AB", "", ["AB"]),
    ("entry sA eA; var { int32_t n = 0; };", "tA a", "tA aVAR", "", ["AVAR"]),
    # the generated modules glob-import each other, so `cC`'s two fields would
    # both have type `&EFORAB`, which rustc rejects as an ambiguous glob import;
    # one diagnostic per cell names its first clashing static
    ("entry sA e;", "tA ab", "tB AB", """[generate(RustGenPlugin, "lib")]
celltype tC { call sA c1; call sA c2; };
cell tC cC { c1 = ab.e; c2 = AB.e; };
""", ["AB"]),
], ids=["instance", "var", "across-celltypes"])
def test_duplicate_static_is_a_located_error(members, first, second, consumer, statics):
    text = f"""signature sA {{ void f( void ); }};
[generate(RustGenPlugin, "lib")]
celltype tA {{ {members} }};
[generate(RustGenPlugin, "lib")]
celltype tB {{ {members} }};
cell {first} {{}};
cell {second} {{}};
{consumer}"""
    files, _, model, diags = generate([("s.cdl", text)])
    assert files == [] and model is None
    first, second = first.split()[1], second.split()[1]
    assert [str(d) for d in diags] == [
        f"s.cdl:7:1: error[duplicate-static]: cell '{second}' emits static "
        f"'{static}', as cell '{first}' does" for static in statics]


def test_celltype_and_signature_names_no_raw_identifier_writes_are_bad_names():
    # 'self' maps to module `self` and trait `Self`, 'Super' and 'crate' to modules
    # `super` and `crate`; `r#` writes none of them. 'match' maps to `r#match`.
    text = """signature self { void f( void ); };
signature Super { void f( void ); };
[generate(RustGenPlugin, "lib")]
celltype crate { entry self eA; entry Super eB; };
[generate(RustGenPlugin, "lib")]
celltype match { entry Super eC; };
cell crate C1 {};
cell match M1 {};
"""
    model, diags = resolve(_units(text, "n.cdl"))
    assert model is None
    assert [str(d) for d in diags] == [
        "n.cdl:4:1: error[bad-name]: celltype name 'crate' does not map to a Rust identifier",
        "n.cdl:1:1: error[bad-name]: signature name 'self' does not map to a Rust identifier",
        "n.cdl:2:1: error[bad-name]: signature name 'Super' does not map to a Rust identifier"]


def test_signatures_sharing_a_contract_file_collide():
    text = """signature sFoo { void f( void ); };
signature s_foo { void g( void ); };
[generate(RustGenPlugin, "lib")]
celltype tA { entry sFoo e1; entry s_foo e2; };
cell tA a {};
"""
    files, _, model, diags = generate([("c.cdl", text)])
    assert files == [] and model is None
    assert [(d.code, str(d.location)) for d in diags] == [("path-collision", "c.cdl:2:1")]


_PROVIDER = 'signature sA { void f( void ); };\n'


def _directed(*celltypes):
    return "".join(f'[generate(RustGenPlugin, "lib")]\ncelltype {ct};\n' for ct in celltypes)


# each clash is one located diagnostic at the later entity, naming its first clashing
# output and that output's first owner
@pytest.mark.parametrize("text, expected", [
    (_PROVIDER + _directed("tFooBar { entry sA e; }", "tFoo_bar { entry sA e; }")
     + "cell tFooBar a {};\ncell tFoo_bar b {};\n",
     "5:1: error[path-collision]: celltype 'tFoo_bar' emits file 't_foo_bar.rs', "
     "as celltype 'tFooBar' does"),
    ("signature tA { void f( void ); };\n" + _directed("tA { entry tA e; }") + "cell tA a {};\n",
     "3:1: error[path-collision]: celltype 'tA' emits file 't_a.rs', as signature 'tA' does"),
    # the definition of tA_impl would overwrite tA's hand-edited skeleton
    (_PROVIDER + _directed("tA { entry sA e; }", "tA_impl { entry sA e; }")
     + "cell tA a {};\ncell tA_impl b {};\n",
     "5:1: error[path-collision]: celltype 'tA_impl' emits file 't_a_impl.rs', "
     "as celltype 'tA' does"),
    (_PROVIDER + _directed("tX { entry sA e; var { int32_t n = 0; }; }", "tXVar { entry sA e; }")
     + "cell tX x {};\ncell tXVar y {};\n",
     "5:1: error[duplicate-type]: celltype 'tXVar' emits type 'TXVar', as celltype 'tX' does"),
    (_PROVIDER + _directed("tAB { entry sA e; }", "tA_b { entry sA e; }",
                             "tC { call sA c1; call sA c2; }")
     + "cell tAB ab {};\ncell tA_b a_b {};\ncell tC c { c1 = ab.e; c2 = a_b.e; };\n",
     "5:1: error[duplicate-type]: celltype 'tA_b' emits type 'TAB', as celltype 'tAB' does"),
    # entry ports eA and ea of one celltype give each cell two statics EAFORA
    (_PROVIDER + _directed("tA { entry sA eA; entry sA ea; }") + "cell tA a {};\n",
     "4:1: error[duplicate-static]: cell 'a' emits static 'EAFORA', as cell 'a' does"),
], ids=["celltypes-file", "signature-and-celltype", "definition-over-skeleton", "var-record",
        "entry-type", "static-within-a-cell"])
def test_outputs_sharing_a_name_are_one_located_error(tmp_path, capsys, text, expected):
    src = tmp_path / "n.cdl"
    src.write_text(text)
    assert run([str(src), "--out", str(tmp_path / "gen")]) == EXIT_DIAGNOSTICS
    assert capsys.readouterr().err.splitlines() == [f"{src}:{expected}"]
    assert list(tmp_path.iterdir()) == [src]


def test_a_type_and_a_static_may_share_a_name(tmp_path):
    # Rust keeps types and values apart: `pub struct TFOO` and `pub static TFOO` coexist
    text = _PROVIDER + _directed("tFOO { entry sA e; }") + "cell tFOO tfoo {};\n"
    files, _, _, diags = generate([("f.cdl", text)])
    assert diags == []
    definition = next(f.content for f in files if f.path == "t_foo.rs")
    assert "pub struct TFOO {" in definition and "pub static TFOO: TFOO = TFOO {" in definition
    rustc_check_tree({f.path: f.content for f in files}, tmp_path)


def test_entry_types_sharing_a_name_are_rejected_before_rustc(tmp_path):
    # `tAB` and `tA_b` both define `TAB` and `EForTAB`, which `tC` glob-imports from both
    # modules (rustc: E0659, ambiguous); renamed apart, the same graph is valid Rust
    unit = (_PROVIDER + _directed("tAB { entry sA e; }", "tA_b { entry sA e; }",
                                    "tC { call sA c1; call sA c2; }")
            + "cell tAB ab {};\ncell tA_b a_b {};\ncell tC c { c1 = ab.e; c2 = a_b.e; };\n")
    files, _, model, diags = generate([("ab.cdl", unit)])
    assert files == [] and model is None
    assert [(d.code, str(d.location)) for d in diags] == [("duplicate-type", "ab.cdl:5:1")]
    files, _, _, diags = generate([("ab.cdl", unit.replace("tA_b", "tA_c"))])
    assert diags == []
    rustc_check_tree({f.path: f.content for f in files}, tmp_path)


def test_bindings_to_two_entry_ports_of_one_celltype_are_rejected(tmp_path, capsys):
    # a definition types each call port by its first cell's target entry, so `c2`'s
    # `&EB_FOR_X` would not fit the `EAForTX` field (rustc: E0308)
    unit = (_PROVIDER + _directed("tX { entry sA eA; entry sA eB; }", "tC { call sA cP; }")
            + "cell tX x {};\ncell tC c1 { cP = x.eA; };\ncell tC c2 { cP = x.eB; };\n")
    src = tmp_path / "e.cdl"
    src.write_text(unit)
    assert run([str(src), "--out", str(tmp_path / "gen")]) == EXIT_DIAGNOSTICS
    assert capsys.readouterr().err.splitlines() == [
        f"{src}:5:15: error[heterogeneous-binding-unsupported]: call port 'cP' of celltype "
        "'tC' binds different entry ports of celltype 'tX' (eA, eB)"]
    assert list(tmp_path.iterdir()) == [src]
    files, _, _, diags = generate([("e.cdl", unit.replace("x.eB", "x.eA"))])
    assert diags == []
    rustc_check_tree({f.path: f.content for f in files}, tmp_path)


def _record(members, bindings=""):
    return (_PROVIDER + _directed("tP { entry sA e; }", f"tC {{ {members} }}")
            + f"cell tP p {{}};\ncell tC c {{ {bindings} }};\n")


# the members of one record may not map to one field: rustc rejects the tree (E0124)
@pytest.mark.parametrize("text, expected", [
    (_record("call sA cA; call sA c_a;", "cA = p.e; c_a = p.e;"),
     "5:27: error[duplicate-field]: call port 'c_a' emits field 'c_a', as call port 'cA' does"),
    (_record("call sA cFoo; attr { int32_t c_foo = 1; };", "cFoo = p.e;"),
     "5:36: error[duplicate-field]: attr 'c_foo' emits field 'c_foo', as call port 'cFoo' does"),
    # a celltype with vars gives its record the field `variable`
    (_record("attr { int32_t variable = 1; }; var { int32_t n = 0; };"),
     "5:22: error[duplicate-field]: attr 'variable' emits field 'variable', "
     "as celltype 'tC' does"),
], ids=["call-ports", "call-port-and-attr", "attr-and-vars"])
def test_record_fields_sharing_a_name_are_one_located_error(tmp_path, capsys, text, expected):
    src = tmp_path / "f.cdl"
    src.write_text(text)
    assert run([str(src), "--out", str(tmp_path / "gen")]) == EXIT_DIAGNOSTICS
    assert capsys.readouterr().err.splitlines() == [f"{src}:{expected}"]
    assert list(tmp_path.iterdir()) == [src]


def test_an_omitted_attr_is_no_field(tmp_path):
    # `[omit]` keeps the attr out of the record, so it may share a call port's field name
    files, _, _, diags = generate([("f.cdl", _record(
        "call sA cFoo; attr { [omit] int32_t c_foo = 1; int32_t variable = 2; };", "cFoo = p.e;"))])
    assert diags == []
    rustc_check_tree({f.path: f.content for f in files}, tmp_path)


# read off the emitted texts, not the table, so the oracle does not share the code under test
_PUB_TYPE = re.compile(r"^pub (?:struct|trait) ((?:r#)?\w+)", re.M)
_PUB_STATIC = re.compile(r"^pub static ((?:r#)?\w+)", re.M)
_PUB_STRUCT_BODY = re.compile(r"^pub struct .*?^\}$", re.M | re.S)
_PUB_FIELD = re.compile(r"^\s+pub ((?:r#)?\w+):", re.M)


@settings(max_examples=150, deadline=None)
@given(colliding_units())
def test_outputs_have_distinct_paths_and_rust_names_or_a_located_error(unit):
    files, _, _, diags = generate([("c.cdl", render_unit(unit))])
    errors = [d for d in diags if d.severity is Severity.ERROR]
    if errors:
        assert files == []
        assert all(d.location.line > 0 for d in errors)
        return
    paths = [f.path for f in files]
    assert len(set(paths)) == len(paths)
    assert all(not p.startswith("/") and ".." not in p.split("/") for p in paths)
    texts = "".join(f.content for f in files)
    for pattern in (_PUB_TYPE, _PUB_STATIC):
        names = pattern.findall(texts)
        assert len(set(names)) == len(names), names
    for body in _PUB_STRUCT_BODY.findall(texts):
        fields = _PUB_FIELD.findall(body)
        assert len(set(fields)) == len(fields), body


# rustc rejects each of these literals for its attr's type: out of range for `i8`
# (`overflowing_literals`, denied by default), a '-' for `u8` (E0600), out of range for
# `i32`, and an integer for `f64` or `()` (E0308). `[omit]` attrs are no field, and an
# identifier is no literal: neither is checked.
_SCALAR_ATTRS = """tS { entry sA e; attr {
  int8_t x = 300;
  uint8_t y = -1;
  int32_t z = 0xFFFFFFFFF;
  double k = 5;
  [omit] int8_t o = 999;
  int8_t w = LIMIT;
  void v = 7;
}; }"""


def test_an_integer_literal_its_rust_type_does_not_hold_is_a_bad_integer(tmp_path, capsys):
    # a default is reported once, at its attr, however many cells take it; a cell's own
    # literal is reported at its initializer, cell by cell in attr order
    src = tmp_path / "s.cdl"
    src.write_text(_PROVIDER + _directed(_SCALAR_ATTRS) + "cell tS a { x = -129; };\n"
                   "cell tS b { w = 128; k = 1; o = 1000; v = 2; };\ncell tS c {};\n")
    assert run([str(src), "--out", str(tmp_path / "gen")]) == EXIT_DIAGNOSTICS
    lines = [(where, f"integer literal '{text}' in {what} {problem}") for where, text, what,
             problem in [
                 ("4:3", "300", "default of attr 'x'", "is out of range for its type 'i8'"),
                 ("5:3", "-1", "default of attr 'y'",
                  "has a '-', which Rust does not accept for its unsigned type 'u8'"),
                 ("6:3", "0xFFFFFFFFF", "default of attr 'z'", "is out of range for its type 'i32'"),
                 ("7:3", "5", "default of attr 'k'",
                  "is an integer, which Rust does not accept for its type 'f64'"),
                 ("10:3", "7", "default of attr 'v'",
                  "is an integer, which Rust does not accept for its type '()'"),
                 ("12:13", "-129", "initializer of 'x'", "is out of range for its type 'i8'"),
                 ("13:22", "1", "initializer of 'k'",
                  "is an integer, which Rust does not accept for its type 'f64'"),
                 ("13:13", "128", "initializer of 'w'", "is out of range for its type 'i8'"),
                 ("13:39", "2", "initializer of 'v'",
                  "is an integer, which Rust does not accept for its type '()'")]]
    assert capsys.readouterr().err.splitlines() == [
        f"{src}:{where}: error[bad-integer]: {message}" for where, message in lines]
    assert list(tmp_path.iterdir()) == [src]


def test_integer_literals_at_their_types_bounds_build(tmp_path):
    text = (_PROVIDER + _directed(
        'tS { entry sA e; attr { int8_t lo = -128; uint8_t hi = 255; int32_t top = 0x7FFFFFFF; '
        'int32_t bottom = -2147483648; double k = C_EXP("5.0"); [omit] uint8_t o = -1; '
        'void v = C_EXP("()"); [omit] void u = 1; }; }')
        + "cell tS a {};\ncell tS b { lo = 127; hi = 0; top = -0x80000000; bottom = 0; u = 2; };\n")
    files, _, _, diags = generate([("b.cdl", text)])
    assert diags == []
    definition = next(f.content for f in files if f.path == "t_s.rs")
    assert "  lo: -128,\n  hi: 255,\n  top: 0x7FFFFFFF,\n  bottom: -2147483648,\n  k: 5.0,\n" \
        "  v: ()," in definition
    rustc_check_tree({f.path: f.content for f in files}, tmp_path)


# each integer scalar's Rust bounds, from its width: the oracle does not read the table
_WIDTHS = (8, 16, 32, 64)
_INTEGER_BOUNDS = {**{f"int{n}_t": (f"i{n}", -1 << n - 1, (1 << n - 1) - 1) for n in _WIDTHS},
                   **{f"uint{n}_t": (f"u{n}", 0, (1 << n) - 1) for n in _WIDTHS}}


def _bounded(past: int, float_default: str, double_default: str) -> str:
    """A celltype with attrs `lo_T` and `hi_T` of each integer type T, defaulted `past`
    beyond T's bounds, and attrs `f` and `d` of `float` and `double`."""
    attrs = "".join(f"{t} lo_{t} = {lo - past}; {t} hi_{t} = {hi + past}; "
                    for t, (_, lo, hi) in _INTEGER_BOUNDS.items())
    return _PROVIDER + _directed(f"tS {{ entry sA e; attr {{ {attrs}float f = {float_default}; "
                                 f"double d = {double_default}; }}; }}")


def test_every_integer_scalar_takes_its_bounds_in_rust(tmp_path):
    # each bound, as a default and as a cell's own literal; floats only through C_EXP
    swapped = " ".join(f"lo_{t} = {hi}; hi_{t} = {lo};"
                       for t, (_, lo, hi) in _INTEGER_BOUNDS.items())
    text = (_bounded(0, 'C_EXP("1.5")', 'C_EXP("2.5")')
            + f"cell tS a {{}};\ncell tS b {{ {swapped} }};\n")
    files, _, _, diags = generate([("b.cdl", text)])
    assert diags == []
    definition = next(f.content for f in files if f.path == "t_s.rs")
    assert "  lo_int64_t: -9223372036854775808,\n" in definition
    assert "  hi_uint64_t: 18446744073709551615,\n" in definition
    rustc_check_tree({f.path: f.content for f in files}, tmp_path)


def test_one_past_each_integer_scalars_bounds_is_a_bad_integer():
    files, _, _, diags = generate([("p.cdl", _bounded(1, "1", "2") + "cell tS a {};\n")])
    assert files == []
    expected = []
    for t, (rust, lo, hi) in _INTEGER_BOUNDS.items():
        expected.append(f"integer literal '{lo - 1}' in default of attr 'lo_{t}' " + (
            f"is out of range for its type '{rust}'" if lo else
            f"has a '-', which Rust does not accept for its unsigned type '{rust}'"))
        expected.append(f"integer literal '{hi + 1}' in default of attr 'hi_{t}' "
                        f"is out of range for its type '{rust}'")
    for literal, attr, rust in [("1", "f", "f32"), ("2", "d", "f64")]:
        expected.append(f"integer literal '{literal}' in default of attr '{attr}' is an "
                        f"integer, which Rust does not accept for its type '{rust}'")
    assert [(d.code, d.message) for d in diags] == [("bad-integer", m) for m in expected]


def test_a_literal_of_thousands_of_digits_is_out_of_range(tmp_path, capsys):
    # `int` refuses a decimal string of over 4,300 digits; a hex one it reads
    long, zeros = "9" * 5000, "0" * 5000
    src = tmp_path / "l.cdl"
    src.write_text(_PROVIDER + _directed(
        f"tS {{ entry sA e; attr {{ int32_t x = {long}; uint64_t y = 0x{zeros}1; }}; }}")
        + f"cell tS a {{ y = -{long}; }};\n")
    assert run([str(src), "--out", str(tmp_path / "gen")]) == EXIT_DIAGNOSTICS
    assert capsys.readouterr().err.splitlines() == [
        f"{src}:3:34: error[bad-integer]: integer literal '{long}' in default of attr 'x' "
        "is out of range for its type 'i32'",
        f"{src}:4:13: error[bad-integer]: integer literal '-{long}' in initializer of 'y' "
        "has a '-', which Rust does not accept for its unsigned type 'u64'"]
    # the hex default is in range; a signed cell literal is checked for its range too
    text = src.read_text().replace(f"x = {long}", "x = 1").replace(f"y = -{long}", f"x = -{long}")
    assert [(d.code, d.message) for d in generate([("l.cdl", text)])[3]] == [(
        "bad-integer", f"integer literal '-{long}' in initializer of 'x' is out of range for "
        "its type 'i32'")]
