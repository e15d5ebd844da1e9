"""Hypothesis generators for structurally valid CDL units.

Consumer celltypes only ever bind call ports into provider celltypes'
entry ports of the matching signature, so generated units always link.
Names are counter-derived (unique by construction); hypothesis drives the
shape: counts, port wiring, defaults, modifiers, and directives.

`colliding_units` is the exception: its names are drawn from a few stems so
that different names often map to one Rust name or file path.
"""

from dataclasses import replace

from hypothesis import strategies as st

from tecsrust.model import (
    AttrDecl, AttrInit, Binding, CdlUnit, CellDef, CelltypeDef, FactoryBlock,
    FactoryScope, FactoryWrite, FunctionDecl, InitKind, Initializer, ParamDecl,
    ParamSpecifier, PluginDirective, PortDecl, PortDirection, SignatureDef, VarDecl,
)

_RUST_PLUGIN = PluginDirective("RustGenPlugin", "lib")


@st.composite
def signatures(draw, index: int) -> SignatureDef:
    n_fn = draw(st.integers(1, 3))
    fns = []
    for j in range(n_fn):
        n_par = draw(st.integers(0, 3))
        params = []
        for k in range(n_par):
            out = draw(st.booleans())
            params.append(ParamDecl(
                ParamSpecifier.OUT if out else ParamSpecifier.IN,
                "int32_t", 1 if out else 0, f"p{k}"))
        fns.append(FunctionDecl(f"fn{j}", "void", tuple(params)))
    return SignatureDef(f"sSig{index}", tuple(fns))


def _attr(j, draw):
    omit = draw(st.booleans())
    default = None
    if draw(st.booleans()):
        default = Initializer(InitKind.LITERAL, str(draw(st.integers(0, 99))))
    else:
        default = Initializer(InitKind.C_EXP, f"VAL_{j}")
    return AttrDecl(f"attr{j}", "int32_t", default, omit)


@st.composite
def cdl_units(draw) -> CdlUnit:
    sigs = [draw(signatures(i)) for i in range(draw(st.integers(1, 3)))]

    providers = []
    for i in range(draw(st.integers(1, 2))):
        entries = tuple(
            PortDecl(PortDirection.ENTRY,
                     draw(st.sampled_from(sigs)).name, f"eProv{i}x{j}",
                     frozenset(["inline"]) if draw(st.booleans()) else frozenset())
            for j in range(draw(st.integers(1, 2))))
        directive = _RUST_PLUGIN if draw(st.booleans()) else None
        providers.append(CelltypeDef(f"tProv{i}", (), entries,
                                     generate_directive=directive))

    consumers = []
    for i in range(draw(st.integers(0, 2))):
        n_call = draw(st.integers(0, 2))
        call_ports, wiring = [], {}
        for j in range(n_call):
            target_ct = draw(st.sampled_from(providers))
            target_entry = draw(st.sampled_from(list(target_ct.entry_ports)))
            port = PortDecl(PortDirection.CALL, target_entry.signature_name,
                            f"cUse{i}x{j}")
            call_ports.append(port)
            wiring[port.port_name] = (target_ct, target_entry)
        entries = tuple(
            PortDecl(PortDirection.ENTRY, draw(st.sampled_from(sigs)).name,
                     f"eCons{i}x{j}")
            for j in range(draw(st.integers(0, 2))))
        attrs = tuple(_attr(j, draw) for j in range(draw(st.integers(0, 2))))
        vars_ = ()
        if draw(st.booleans()):
            vars_ = (VarDeclFactory(i),)
        blocks = ()
        if draw(st.booleans()):
            blocks = (FactoryBlock(FactoryScope.PER_CELLTYPE, (
                FactoryWrite("gen.cfg", f"LINE_{i} ct=$ct$"),)),)
        directive = _RUST_PLUGIN if draw(st.booleans()) else None
        ct = CelltypeDef(f"tCons{i}", tuple(call_ports), entries, attrs, vars_,
                         blocks, directive)
        consumers.append((ct, wiring))

    cells = []
    provider_cells = {}
    for ct in providers:
        names = []
        for j in range(draw(st.integers(1, 2))):
            name = f"P{ct.name[5:]}n{j}"
            cells.append(CellDef(name, ct.name))
            names.append(name)
        provider_cells[ct.name] = names

    for ct, wiring in consumers:
        for j in range(draw(st.integers(1, 2))):
            bindings = []
            for port in ct.call_ports:
                target_ct, target_entry = wiring[port.port_name]
                target_cell = draw(st.sampled_from(provider_cells[target_ct.name]))
                bindings.append(Binding(port.port_name, target_cell,
                                        target_entry.port_name))
            inits = tuple(
                AttrInit(a.name, Initializer(InitKind.LITERAL, str(j)))
                for a in ct.attrs if draw(st.booleans()))
            cells.append(CellDef(f"C{ct.name[5:]}n{j}", ct.name,
                                 tuple(bindings), inits))

    return CdlUnit("<generated>",
                   tuple(sigs),
                   tuple(providers) + tuple(ct for ct, _ in consumers),
                   tuple(cells))


@st.composite
def cdl_units_with_gaps(draw) -> CdlUnit:
    """A cdl_units unit with random attr defaults and var initializers
    dropped, so some cells reach generation with a value missing."""
    unit = draw(cdl_units())

    def drop(decl):
        return replace(decl, default=None) if draw(st.booleans()) else decl

    return replace(unit, celltypes=tuple(
        replace(ct, attrs=tuple(map(drop, ct.attrs)), vars=tuple(map(drop, ct.vars)))
        for ct in unit.celltypes))


def VarDeclFactory(i):
    return VarDecl(f"state{i}", "Option_Ref_a_mut__dev_t__",
                   Initializer(InitKind.C_EXP, "None"))


def brute_force_counts(unit: CdlUnit):
    """Independent count of owed files, straight off the AST."""
    directed = {ct.name for ct in unit.celltypes if ct.generate_directive}
    for cell in unit.cells:
        if cell.generate_directive:
            directed.add(cell.celltype_name)
    by_name = {ct.name: ct for ct in unit.celltypes}
    sigs = set()
    for name in directed:
        for port in by_name[name].ports:
            sigs.add(port.signature_name)
    n_defs = len(directed)
    n_skels = sum(1 for name in directed if by_name[name].entry_ports)
    return len(sigs), n_defs, n_skels


def non_generating_bindings(unit: CdlUnit) -> list:
    """The message of each binding from a cell of a directed celltype to a cell whose
    celltype has no directive, in celltype, cell and binding order."""
    directed = {ct.name for ct in unit.celltypes if ct.generate_directive}
    directed |= {cell.celltype_name for cell in unit.cells if cell.generate_directive}
    celltype_of = {cell.name: cell.celltype_name for cell in unit.cells}
    return [f"cell '{cell.name}' binds '{b.call_port_name}' to cell '{b.target_cell_name}', "
            f"whose celltype '{celltype_of[b.target_cell_name]}' generates no Rust"
            for ct in unit.celltypes if ct.name in directed
            for cell in unit.cells if cell.celltype_name == ct.name
            for b in cell.bindings if celltype_of[b.target_cell_name] not in directed]


_STEMS = ("foo", "fooBar", "ab")
# names that map to a few record fields: a call port's field is its name in snake case, an
# attr's field is its name, and a celltype with vars adds the field `variable`
_FIELD_NAMES = ("cFoo", "c_foo", "CFoo", "c_Foo", "cfoo", "variable", "Variable", "VARIABLE",
                "type", "Type")
_CASES = (str, str.upper, str.lower, str.capitalize, str.swapcase)
_SUFFIXES = ("", "_impl", "Impl", "Var", "_var", "VAR")
_KEYWORDS = ("match", "type", "fn", "impl", "mod", "self", "Self", "crate", "super")


@st.composite
def colliding_names(draw, prefixes) -> str:
    """One of `prefixes` and a stem in some case, maybe split by '_', and a
    suffix; or now and then a Rust keyword."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(_KEYWORDS))
    stem = draw(st.sampled_from(_STEMS))
    cut = draw(st.integers(0, len(stem) - 1))
    if cut:
        stem = stem[:cut] + "_" + stem[cut:]
    case = draw(st.sampled_from(_CASES))
    return case(draw(st.sampled_from(prefixes)) + stem) + draw(st.sampled_from(_SUFFIXES))


@st.composite
def colliding_units(draw) -> CdlUnit:
    """Generating celltypes with their entry ports, one or two cells of each, and
    signatures, all named by `colliding_names`, and call ports and attrs named
    from `_FIELD_NAMES`: a unit may fail to link or clash in its output names,
    and the generator does not try to avoid either. Call ports use signatures
    that some entry port has, and each cell binds them."""
    sigs = [SignatureDef(draw(colliding_names(("s", "t"))), (FunctionDecl("f", "void", ()),))
            for _ in range(draw(st.integers(1, 2)))]
    celltypes = []
    for _ in range(draw(st.integers(1, 3))):
        entries = tuple(PortDecl(PortDirection.ENTRY, draw(st.sampled_from(sigs)).name,
                                 draw(colliding_names(("e", "E"))))
                        for _ in range(draw(st.integers(0, 2))))
        attrs = tuple(AttrDecl(draw(st.sampled_from(_FIELD_NAMES)),
                               "int32_t", Initializer(InitKind.LITERAL, "1"))
                      for _ in range(draw(st.integers(0, 2))))
        vars_ = ()
        if draw(st.booleans()):
            vars_ = (VarDecl("n", "int32_t", Initializer(InitKind.LITERAL, "0")),)
        celltypes.append(CelltypeDef(draw(colliding_names(("t", "s"))), (), entries, attrs,
                                     vars_, (), _RUST_PLUGIN))
    provided = sorted({e.signature_name for ct in celltypes for e in ct.entry_ports})
    if provided:
        celltypes = [replace(ct, call_ports=tuple(
            PortDecl(PortDirection.CALL, draw(st.sampled_from(provided)),
                     draw(st.sampled_from(_FIELD_NAMES)))
            for _ in range(draw(st.integers(0, 2))))) for ct in celltypes]
    typed = [(draw(colliding_names(("t", "e", ""))), ct)
             for ct in celltypes for _ in range(draw(st.integers(1, 2)))]
    cells = []
    for name, ct in typed:
        bindings = tuple(Binding(call.port_name, *draw(st.sampled_from(
            [(cell, e.port_name) for cell, target in typed for e in target.entry_ports
             if e.signature_name == call.signature_name]))) for call in ct.call_ports)
        cells.append(CellDef(name, ct.name, bindings))
    return CdlUnit("<generated>", tuple(sigs), tuple(celltypes), tuple(cells))
