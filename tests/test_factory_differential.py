"""`$macro$` filling and factory rendering against the reference, on mutants of
`kernel_rs.cdl`.

`reference_factory` builds a macro environment for every attr text that holds
a hole and for every factory scope, and fills every template in every scope.
`linker.resolve` must give the same attr texts, the same factory writes in the
same order, and the same diagnostics (text, location and order) as `resolve`
with the reference's `attr_text` and `render_factory` in place of its own.

Each mutant redraws the golden's factory targets and line templates, its attr
defaults and its cells' initializers from pools that reach every rule:
attrs named `ct` and `cell`, duplicate attrs and initializers, `$cell$` in
`FACTORY`, a hole naming an undeclared attr that a cell initializes, a value
that leaves a `$` behind, `..`, absolute, empty and NUL targets, targets that
clash with a core file or use one path as a file and as a directory, and a
second celltype whose `$ct$` targets must not share the first one's fills.
"""

import random

import reference_factory
from records import replace
from tecsrust import linker
from tecsrust.frontend import parse_unit

# each pool is the common choices, then the odd ones, drawn with the mutant's `rare` odds
TARGETS = (["tecsgen.cfg", "tecsgen.cfg", "./tecsgen.cfg", "$ct$_tecsgen.h", "$ct$_factory.h",
            "$cell$.cfg", "cfg/$cell$.h", "$id$.cfg", "$ct$/$ct$.cfg", "$ct$"],
           ["$priority$/p.cfg", "$cell$", "$undecl$.cfg", "$nope$.cfg", "../up.cfg",
            "a/../../up.cfg", "/abs.cfg", "", ".", "d", "d/x.cfg", "t_task_rs.rs",
            "t_task_rs.rs/x.cfg", "s_task.rs", "a$$.cfg", "$dollar$.cfg", "a\0b.cfg",
            "$nul$.cfg"])
TEMPLATES = (["X", "$ct$", "$ct$_$cell$", "TSKID_$id$", "$id$$id$", "[$attribute$]", "",
              "CRE_TSK(TSKID_$id$, { $attribute$, 0, task_rs, $priority$, $stackSize$, NULL });",
              '#include \\"$ct$_tecsgen.h\\"', '#include \\"kernel_cfg.h\\"'],
             ["$cell$", "$undecl$", "$nope$", "a$$b", "$dollar$", "$task_ref$", "[$stackSize$]"])
DEFAULTS = ['C_EXP("TSKID_$id$")', 'C_EXP("$ct$")', 'C_EXP("$cell$")', 'C_EXP("$undecl$")',
            'C_EXP("$nope$")', 'C_EXP("V_$priority$")', 'C_EXP("$stackSize$")',
            'C_EXP("$dollar$")', 'C_EXP("A_$attribute$")', 'C_EXP("TA_NULL")', 'C_EXP("")', "7",
            None]
INITS = ["1", "-2", 'C_EXP("TA_ACT")', 'C_EXP("$ct$")', 'C_EXP("$cell$")', 'C_EXP("$id$")',
         'C_EXP("$attribute$")', 'C_EXP("$undecl$")', 'C_EXP("$$")', 'C_EXP("a\0b")']
# (modifier, type, name, default) of `tTask_rs`'s attrs in the golden
ATTRS = [("[omit] ", "ID", "id", 'C_EXP("TSKID_$id$")'),
         ("", "TaskRef", "task_ref",
          'C_EXP("unsafe{TaskRef::from_raw_nonnull(NonZeroI32::new(TSKID_$id$).unwrap())}")'),
         ("[omit] ", "ATR", "attribute", 'C_EXP("TA_NULL")'),
         ("[omit] ", "PRI", "priority", None), ("[omit] ", "size_t", "stackSize", None)]
# attrs a mutant may add: `ct` and `cell` (see `spell_cell`), which the built-in holes
# shadow, a value that leaves a `$` behind, a NUL, and a second `priority` and `attribute`
EXTRA_ATTRS = [("[omit] ", "ID", "ct", 'C_EXP("CT_ATTR")'), ("", "ID", "cell_", 'C_EXP("C")'),
               ("[omit] ", "ID", "dollar", 'C_EXP("$$")'),
               ("[omit] ", "ID", "nul", 'C_EXP("n\0")'),
               ("[omit] ", "PRI", "priority", 'C_EXP("SECOND")'),
               ("[omit] ", "ATR", "attribute", None)]
CELL_INITS = [("id", "1"), ("attribute", 'C_EXP("TA_ACT")'), ("priority", 'C_EXP("MID")'),
              ("stackSize", 'C_EXP("STACK_SIZE")')]
# initializers a mutant may add: of undeclared attrs unless EXTRA_ATTRS declared them,
# and second ones of declared attrs
EXTRA_INITS = ["undecl", "ct", "cell_", "dollar", "id", "task_ref"]


def mutant(rng: random.Random) -> str:
    odds = rng.choice([0.02, 0.08, 0.25])

    def rare(scale=1.0):
        return rng.random() < odds * scale

    def pick(pool, per_celltype):
        common, odd = pool
        if per_celltype:  # `$cell$` in FACTORY is odd
            common = [t for t in common if "$cell$" not in t]
        return rng.choice(odd if rare() else common)

    def writes(n, per_celltype=False):
        return " ".join(f'write("{pick(TARGETS, per_celltype)}", '
                        f'"{pick(TEMPLATES, per_celltype)}");' for _ in range(n))

    attrs = [(m, t, name, rng.choice(DEFAULTS) if rare() else default)
             for m, t, name, default in ATTRS]
    attrs += [a for a in EXTRA_ATTRS if rare(0.6)]
    attrs = [("" if rare(0.4) else m, t, name, d) for m, t, name, d in attrs]
    lines = ["signature sTask { void wakeup( void ); };",
             "signature sTaskBody { void run( void ); };",
             '[generate(ItronrsGenPlugin, "lib")]', "celltype tTask_rs {",
             "    [inline] entry sTask eTask;", "    call sTaskBody cTaskBody;", "    attr {"]
    lines += [f"        {m}{t} {name}" + (f" = {d};" if d else ";") for m, t, name, d in attrs]
    lines += ["    };", f"    factory {{ {writes(rng.randint(0, 4))} }};",
              f"    FACTORY {{ {writes(rng.randint(0, 2), True)} }};", "};",
              '[generate(ItronrsGenPlugin, "lib")]', "celltype tTaskBody {",
              "    entry sTaskBody eBody;"]
    if rng.random() < 0.4:
        lines += [f"    factory {{ {writes(rng.randint(1, 2))} }};",
                  f"    FACTORY {{ {writes(1, True)} }};"]
    lines += ["};", '[generate(ItronrsGenPlugin, "lib")]', "cell tTaskBody MainBody {};"]
    for k in range(1, rng.randint(1, 3) + 1):
        inits = [(name, rng.choice(INITS) if rare() else value) for name, value in CELL_INITS
                 if not rare()]
        inits += [(name, rng.choice(INITS)) for name in EXTRA_INITS if rare(0.3)]
        lines += ['[generate(ItronrsGenPlugin, "lib")]', f"cell tTask_rs Task{k} {{",
                  "    cTaskBody = MainBody.eBody;"]
        lines += [f"    {name} = {value};" for name, value in inits]
        lines.append("};")
    return "\n".join(lines) + "\n"


def spell_cell(unit):
    """`cell` is a CDL keyword, so no source names an attr `cell`: rename `cell_` to it."""
    def fix(name):
        return "cell" if name == "cell_" else name

    return replace(unit, celltypes=tuple(
        replace(ct, attrs=tuple(replace(a, name=fix(a.name)) for a in ct.attrs))
        for ct in unit.celltypes), cells=tuple(
        replace(c, attr_inits=tuple(replace(i, attr_name=fix(i.attr_name))
                                    for i in c.attr_inits)) for c in unit.cells))


def outcome(unit):
    model, diags = linker.resolve([unit])
    return ([str(d) for d in diags],
            model and [(w.celltype.name, w.cell and w.cell.name, w.target_template,
                        w.line_template, w.target_file, w.rendered_line)
                       for w in model.config_writes],
            model and [(rc.cell.name, rc.attr_texts) for rc in model.cells])


def reference_attr_text(ct, cell, attr, *tables_and_diags):
    return reference_factory.attr_text(ct, cell, attr, tables_and_diags[-1])


def reference_outcome(unit, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(linker, "_attr_text", reference_attr_text)
        patch.setattr(linker, "_render_factory", reference_factory.render_factory)
        return outcome(unit)


def test_resolve_matches_the_reference_on_kernel_mutants(monkeypatch):
    rng = random.Random("factory")
    seen = set()
    for _ in range(500):
        text = mutant(rng)
        parsed = parse_unit(text, "kernel_rs.cdl")
        assert parsed.unit is not None and not parsed.diagnostics, text
        unit = spell_cell(parsed.unit)
        got = outcome(unit)
        assert got == reference_outcome(unit, monkeypatch), text
        diags, writes, _ = got
        seen |= {d.split("error[")[1].split("]")[0] for d in diags}
        seen |= {"clean"} if writes else set()
    # the corpus reaches the attr-text phase, every factory check and clean trees
    assert {"clean", "uninitialized-attribute", "unresolved-macro", "write-outside-out",
            "path-collision"} <= seen
