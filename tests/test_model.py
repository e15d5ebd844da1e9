import inspect
import sys
from pathlib import Path

import pytest

from conftest import golden
from records import fields, is_record, replace
from tecsrust import model
from tecsrust.cli import generate
from tecsrust.emit_core import GeneratedFile, Output
from tecsrust.frontend import LineIndex, ParseResult, parse_unit
from tecsrust.linker import (
    EmissionPlan, GenerationReport, PlannedWrite, ResolvedBinding, ResolvedCell, ResolvedModel,
)
from tecsrust.model import (
    AttrDecl, AttrInit, Binding, CdlUnit, CellDef, Diagnostic, FactoryBlock, FactoryWrite,
    FunctionDecl, Initializer, ParamDecl, ParamSpecifier, PluginDirective, PortDecl, PortDirection,
    CelltypeDef, Record, SignatureDef, Severity, SourceLoc, VarDecl,
    has_errors, validate_unit,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

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


_OCTAL = "has a leading zero (octal in C, decimal in Rust)"


# each literal passes after `fixed` replaces it
@pytest.mark.parametrize("text, message, column, fixed", [
    ("celltype tA { attr { int32_t x = 0x; }; };",
     "integer literal '0x' in default of attr 'x' has no digits", 22, "0x1"),
    ("celltype tA { var { int32_t x = -0X; }; };",
     "integer literal '-0X' in default of var 'x' has no digits", 21, "-0x1"),
    ("celltype tA { attr { int32_t x; }; };\ncell tA A { x = -0x; };",
     "integer literal '-0x' in initializer of 'x' has no digits", 13, "-0x1"),
    # C reads 010 as 8 and rejects 08; Rust reads both as decimal
    ("celltype tA { attr { int32_t k = 010; }; };",
     f"integer literal '010' in default of attr 'k' {_OCTAL}", 22, "8"),
    ("celltype tA { var { int32_t k = -08; }; };",
     f"integer literal '-08' in default of var 'k' {_OCTAL}", 21, "-0"),
    ("celltype tA { attr { int32_t k; }; };\ncell tA A { k = 00; };",
     f"integer literal '00' in initializer of 'k' {_OCTAL}", 13, "0"),
    # Rust has no 0X prefix
    ("celltype tA { attr { int32_t x = 0X1F; }; };", "integer literal '0X1F' in default of "
     "attr 'x' has a '0X' prefix, which Rust does not accept", 22, "0x1F"),
], ids=["attr-default", "var-default", "cell-initializer",
        "octal-attr-default", "octal-var-default", "octal-cell-initializer", "upper-hex-prefix"])
def test_integer_literal_without_digits_is_rejected(text, message, column, fixed):
    diags = validate_unit(parse_unit(text, "lit.cdl").unit)
    assert [(d.code, d.message) for d in diags] == [("bad-integer", message)]
    assert (diags[0].location.file, diags[0].location.column) == ("lit.cdl", column)
    literal = message.split("'")[1]
    assert validate_unit(parse_unit(text.replace(f"= {literal};", f"= {fixed};")).unit) == []


# each class `model` defines with fields: not `_LazyLocation`, nor `Diagnostic`
NODE_CLASSES = {c for c in vars(model).values() if isinstance(c, type) and is_record(c)
                and fields(c) and c.__module__ == model.__name__}
# the fields each node class leaves out of equality and hash; `at` and `lines` for the rest
UNCOMPARED = {CdlUnit: {"source_name"}, Initializer: set(), FactoryBlock: set()}


def _nodes(value):
    """`value` and every model node inside it, depth first."""
    if is_record(value):
        yield value
        for f in fields(value):
            yield from _nodes(getattr(value, f))
    elif isinstance(value, (tuple, frozenset)):
        for item in value:
            yield from _nodes(item)


def test_every_model_node_is_a_slotted_value():
    units = [parse_unit(golden(name), name).unit for name in ("sample.cdl", "kernel_rs.cdl")]
    found = {}
    for node in [n for unit in units for n in _nodes(unit)]:
        found.setdefault(type(node), []).append(node)
    assert set(found) == NODE_CLASSES  # the goldens build a node of each class
    loc = SourceLoc("elsewhere.cdl", 99, 9)
    elsewhere = {"at": loc, "lines": LineIndex("", "elsewhere.cdl"), "source_name": "elsewhere.cdl"}
    for cls, nodes in found.items():
        assert "__slots__" in vars(cls)
        uncompared = UNCOMPARED.get(cls, {"at", "lines"})
        assert uncompared <= set(fields(cls)) and "location" not in fields(cls), cls
        for node in nodes:
            assert not hasattr(node, "__dict__")
            with pytest.raises(AttributeError):
                node.misspelt = 1
            copy = replace(node)
            assert copy is not node and copy == node and repr(copy) == repr(node)
            assert hash(copy) == hash(node) and repr(node).startswith(cls.__name__ + "(")
            for name in uncompared:
                moved = replace(node, **{name: elsewhere[name]})
                assert moved == node and hash(moved) == hash(node) and repr(moved) != repr(node)
            for name in set(fields(cls)) - uncompared:
                assert replace(node, **{name: object()}) != node, (cls, name)
    assert repr(ParamDecl(ParamSpecifier.OUT, "int32_t", 1, "d", 7, LineIndex("", "f.cdl"))) == (
        "ParamDecl(specifier=<ParamSpecifier.OUT: 'out'>, c_type='int32_t', pointer_depth=1, "
        "name='d', at=7, lines=<LineIndex of 'f.cdl'>)")


PIPELINE_RECORDS = {ResolvedBinding, ResolvedCell, ResolvedModel, PlannedWrite, GenerationReport,
                    EmissionPlan, GeneratedFile, Output, ParseResult}


def test_every_pipeline_record_is_slotted():
    # `rtos_tasks` builds 32,016 `PlannedWrite`s and `app_16k` 16,020 `ResolvedCell`s
    text = golden("kernel_rs.cdl")
    files, plan, resolved, diags = generate([("kernel_rs.cdl", text)])
    assert not diags
    emitted = files[0].emit(*files[0].args)  # what an output renders: a `GeneratedFile`
    records = [parse_unit(text, "kernel_rs.cdl"), resolved, plan, plan.report, *files, emitted,
               *resolved.cells, *resolved.config_writes,
               *(rb for rc in resolved.cells for rb in rc.bindings.values())]
    assert {type(r) for r in records} == PIPELINE_RECORDS
    for record in records:
        cls = type(record)
        assert "__slots__" in vars(cls) and not hasattr(record, "__dict__"), cls
        with pytest.raises(AttributeError):
            record.misspelt = 1
        copy = replace(record)
        assert repr(copy) == repr(record) and repr(record).startswith(cls.__name__ + "(")
        if cls is Output:  # equal only to itself
            assert copy != record and record == record and hash(record) == object.__hash__(record)
        elif cls is GeneratedFile:  # a value
            assert copy == record and hash(copy) == hash(record)
            assert replace(record, content="") != record
        else:  # equal by fields, and never hashed
            assert copy == record
            with pytest.raises(TypeError):
                hash(record)
    cell, ct = resolved.cells[0].cell, resolved.cells[0].celltype
    assert ResolvedCell(cell, ct).bindings is not ResolvedCell(cell, ct).bindings
    assert GenerationReport().file_lines is not GenerationReport().file_lines
    assert GenerationReport().skeleton_files is not GenerationReport().skeleton_files
    assert EmissionPlan([], [], [], []).report is not EmissionPlan([], [], [], []).report
    assert EmissionPlan([], [], [], []).files is not EmissionPlan([], [], [], []).files


def test_a_record_that_holds_itself_shows_as_dots():
    rc = ResolvedCell(CellDef("c", "t"), CelltypeDef("t"))
    rc.bindings["p"] = ResolvedBinding(None, rc, None)
    shown = repr(rc)
    assert shown.startswith("ResolvedCell(cell=CellDef(name='c', ") and shown.endswith(
        "bindings={'p': ResolvedBinding(call_port=None, target_cell=..., target_entry=None)}, "
        "attr_texts=())")


def _params(*required, **defaults) -> list:
    """Constructor parameters as (name, default) pairs, in order; `REQUIRED` for no default."""
    return [(name, REQUIRED) for name in required] + list(defaults.items())


REQUIRED, NOWHERE = inspect.Parameter.empty, model._NOWHERE
# each record class's constructor, pinned: its parameters in order, and their defaults
CONSTRUCTORS = {
    Diagnostic: _params("severity", "code", "message", "location"),
    Initializer: _params("kind", "text"),
    ParamDecl: _params("specifier", "c_type", "pointer_depth", "name", at=NOWHERE, lines=None),
    FunctionDecl: _params("name", "return_type", "params", at=NOWHERE, lines=None),
    SignatureDef: _params("name", "functions", at=NOWHERE, lines=None),
    PortDecl: _params("direction", "signature_name", "port_name", modifiers=frozenset(),
                      at=NOWHERE, lines=None),
    AttrDecl: _params("name", "c_type", default=None, omit=False, at=NOWHERE, lines=None),
    VarDecl: _params("name", "type_text", default=None, at=NOWHERE, lines=None),
    FactoryWrite: _params("target_file", "template", at=NOWHERE, lines=None),
    FactoryBlock: _params("scope", "writes"),
    PluginDirective: _params("plugin_name", "argument", at=NOWHERE, lines=None),
    CelltypeDef: _params("name", call_ports=(), entry_ports=(), attrs=(), vars=(),
                         factory_blocks=(), generate_directive=None, at=NOWHERE, lines=None),
    Binding: _params("call_port_name", "target_cell_name", "target_entry_port_name",
                     at=NOWHERE, lines=None),
    AttrInit: _params("attr_name", "value", at=NOWHERE, lines=None),
    CellDef: _params("name", "celltype_name", bindings=(), attr_inits=(),
                     generate_directive=None, at=NOWHERE, lines=None),
    CdlUnit: _params(source_name="<memory>", signatures=(), celltypes=(), cells=()),
    ResolvedBinding: _params("call_port", "target_cell", "target_entry"),
    ResolvedCell: _params("cell", "celltype", bindings=None, attr_texts=()),
    ResolvedModel: _params("cells", "signature_index", "celltype_index", "plugin_by_celltype",
                           "cells_by_celltype", "owners", "config_writes"),
    PlannedWrite: _params("celltype", "cell", "target_template", "line_template", "target_file",
                          "rendered_line"),
    GenerationReport: _params(file_lines=None, skeleton_files=None),
    EmissionPlan: _params("contract_sigs", "definition_cts", "skeleton_cts", "config_writes",
                          files=None),
    GeneratedFile: _params("path", "content", "policy"),
    Output: _params("path", "policy", "emit", "args", count=None),
    ParseResult: _params("unit", "diagnostics"),
}
# records whose `None` default stands for a fresh dict, set or list, of the type given
FRESH_DEFAULTS = {ResolvedCell: {"bindings": dict},
                  GenerationReport: {"file_lines": dict, "skeleton_files": set},
                  EmissionPlan: {"files": list}}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_each_record_constructor_is_pinned():
    records = {c for c in _subclasses(Record)
               if c.__module__.startswith("tecsrust.") and vars(c).get("__slots__")}
    assert records == set(CONSTRUCTORS)
    for cls, expected in CONSTRUCTORS.items():
        params = list(inspect.signature(cls).parameters.values())
        assert [(p.name, p.default) for p in params] == expected, cls
        assert {p.kind for p in params} <= {inspect.Parameter.POSITIONAL_OR_KEYWORD}, cls
        assert all(type(p.default) is type(d) for p, (_, d) in zip(params, expected)), cls
        assert [p.name for p in params] == list(cls.__slots__), cls
        assert cls.__init__.__qualname__ == cls.__qualname__ + ".__init__"
        required = [object() for _, d in expected if d is REQUIRED]
        record = cls(*required)
        assert [getattr(record, name) for name, _ in expected[:len(required)]] == required
        for name, default in expected[len(required):]:
            if default is not None or cls not in FRESH_DEFAULTS:
                assert getattr(record, name) == default, (cls, name)
        given = {name: object() for name, _ in expected}
        record = cls(**given)
        assert all(getattr(record, name) is value for name, value in given.items()), cls
        with pytest.raises(TypeError, match="misspelt"):
            cls(*required, misspelt=1)
        if required:
            with pytest.raises(TypeError):
                cls(*required[:-1])
        with pytest.raises(TypeError):
            cls(*required, *[None] * (len(expected) - len(required) + 1))


def test_a_record_that_writes_its_own_init_keeps_it():
    for cls in CONSTRUCTORS:  # no record in `tecsrust` writes its own
        made_in = vars(cls)["__init__"].__code__.co_filename
        assert made_in == f"<{cls.__module__}.{cls.__qualname__}.__init__>", cls
    for cls, fresh in FRESH_DEFAULTS.items():
        required = [object() for _, d in CONSTRUCTORS[cls] if d is REQUIRED]
        one, other = cls(*required), cls(*required)
        for name, kind in fresh.items():
            assert type(getattr(one, name)) is kind and getattr(one, name) == kind(), (cls, name)
            assert getattr(one, name) is not getattr(other, name), (cls, name)
            value = kind()
            assert getattr(cls(*required, **{name: value}), name) is value, (cls, name)

    class Tally(Record):
        __slots__ = ("name", "items")
        _fresh = {"items": list}

    assert Tally("a").items == [] and Tally("a").items is not Tally("a").items
    assert Tally("a", ["b"]).items == ["b"] and Tally.__init__.__code__.co_filename != __file__

    class Counted(Record):
        __slots__ = ("items",)

        def __init__(self, items=None):
            self.items = [] if items is None else items

    assert Counted().items == [] and Counted().items is not Counted().items
    assert Counted.__init__.__code__.co_filename == __file__


def test_diagnostic_is_a_slotted_value():
    [diag] = parse_unit("cell", "x").diagnostics
    assert "__slots__" in vars(Diagnostic) and not hasattr(diag, "__dict__")
    with pytest.raises(AttributeError):
        diag.misspelt = 1
    others = {"severity": Severity.WARNING, "code": "bad-name", "message": "other",
              "location": SourceLoc("x", 1, 2)}  # a value of each field that `diag` has not

    def copy(**changed):
        return Diagnostic(*(changed.get(name, getattr(diag, name)) for name in others))

    assert copy() is not diag and copy() == diag and hash(copy()) == hash(diag)
    assert copy(location=SourceLoc("x", 1, 1)) == diag and diag.__eq__(str(diag)) is NotImplemented
    for name, other in others.items():
        assert copy(**{name: other}) != diag, name
    assert repr(diag) == ("Diagnostic(severity=<Severity.ERROR: 'error'>, code='unexpected-token', "
                          "message=\"expected celltype name, found 'end of input'\", "
                          "location=SourceLoc(file='x', line=1, column=1))")


@pytest.mark.parametrize("name", ["sample.cdl", "kernel_rs.cdl", *workloads.WORKLOADS])
def test_pipeline_leaves_its_ast_as_parsed(name):
    # nodes are not frozen; every one the pipeline reaches must still read as parsed
    sources = ([(name, golden(name))] if name.endswith(".cdl")
               else list(workloads.build(name, 1, scale=0.02).sources.items()))
    files, plan, resolved, diags = generate(sources)
    assert files and not has_errors(diags)
    fresh = {}
    for source_name, text in sources:
        unit = parse_unit(text, source_name).unit
        for node in unit.signatures + unit.celltypes + unit.cells:
            fresh[type(node), node.name] = node
    reached = [*resolved.signature_index.values(), *resolved.celltype_index.values(),
               *plan.contract_sigs, *plan.definition_cts, *plan.skeleton_cts]
    for rc in resolved.cells:
        reached += [rc.cell, rc.celltype, *(b.target_cell.cell for b in rc.bindings.values())]
    reached += [n for w in plan.config_writes for n in (w.celltype, w.cell) if n is not None]
    reached = list({id(n): n for n in reached}.values())
    assert {(type(n), n.name) for n in reached} == set(fresh)
    for node in reached:
        twin = fresh[type(node), node.name]
        assert node == twin and repr(node) == repr(twin)  # repr shows the locations
