"""The five frozen references, pinned by a digest of what they give on a fixed corpus.

Each `reference_*.py` owns every helper and constant it computes with, so an edit to
`src/` cannot move it; this test makes an edit to a reference, or to the corpus, fail
loudly. The corpus is built with `random.Random` and `cdl_renderer` only, so it is the same
wherever the tests run, whatever hypothesis version is installed:
- both goldens, and the three benchmark workloads at the scales in `SCALES`, which give
  each a few celltypes, with seeds 1, 3 and 7;
- `UNITS` seeded random units, rendered by `cdl_renderer`;
- `MUTANTS` text mutants of the goldens and those units, each with one to three lexemes
  dropped, duplicated, swapped, cut after, or replaced from `ODD`, lines repeated, or integers
  replaced from `LITERALS`;
- for the factory reference, `FACTORY_MUTANTS` mutants of `kernel_rs.cdl` from
  `test_factory_differential.mutant`.

The tokenizer and parser see every text; the validator every unit the reference parser
reads; the definition and factory references each set of those units, as `resolve` with
`RustGenPlugin` as the default plugin gives it to them, and the factory mutants.
"""

import hashlib
import json
import random
import re
import sys
from enum import Enum
from pathlib import Path

import pytest

import reference_definition
import reference_factory
import reference_parser
import reference_tokenizer
import reference_validate
from cdl_renderer import render_unit
from conftest import golden
from records import fields, is_record
from tecsrust import linker
from tecsrust.diagnostics import SourceLoc
from tecsrust.frontend import parse_unit
from tecsrust.model import (
    AttrDecl, AttrInit, Binding, CdlUnit, CellDef, CelltypeDef, FactoryBlock, FactoryScope,
    FactoryWrite, FunctionDecl, InitKind, Initializer, ParamDecl, ParamSpecifier,
    PluginDirective, PortDecl, PortDirection, SignatureDef, VarDecl,
)
from test_factory_differential import mutant as kernel_mutant
from test_factory_differential import reference_attr_text, spell_cell

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

UNITS, MUTANTS, FACTORY_MUTANTS = 60, 300, 150
SCALES = {"app_16k": 0.002, "rtos_tasks": 0.002, "api_regen": 0.01}
PLUGINS = (None, PluginDirective("RustGenPlugin", "lib"),
           PluginDirective("ItronrsGenPlugin", "lib"))
# C_EXP tails and lexemes a mutant may put in: format characters, odd literals and names
TAILS = ("", "%", "%s", "{}", "\\", "$ct$", "$cell$", "$a0$")
ODD = ("010", "0x", "0X1F", "-3", "$", "**", "[out]", "[omit]", "cell", "C_EXP", "RustGen",
       '"a', "/*", "}", ";", "٣", "self", "type")
LITERALS = ("010", "0x", "0X1F", "-010", "0x1F", "0", "-1", "4294967296")
_PIECE = re.compile(r'(//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\w+|\S)(\s*)', re.DOTALL)


def random_unit(rng: random.Random, index: int) -> CdlUnit:
    """Signatures, provider celltypes with entry ports, consumer celltypes that call them,
    with attrs, a var and factory writes, and cells that bind every call port."""
    sigs = [SignatureDef(f"sSig{i}", tuple(
        FunctionDecl(f"fn{j}", rng.choice(["void", "int32_t"]), tuple(
            ParamDecl(ParamSpecifier.OUT, "int32_t", 1, f"p{k}") if rng.random() < 0.5
            else ParamDecl(ParamSpecifier.IN, rng.choice(["int32_t", "uint8_t"]), 0, f"p{k}")
            for k in range(rng.randint(0, 2))))
        for j in range(rng.randint(1, 3)))) for i in range(rng.randint(1, 3))]
    providers = [CelltypeDef(f"tProv{i}", (), tuple(
        PortDecl(PortDirection.ENTRY, rng.choice(sigs).name, f"eProv{i}x{j}",
                 frozenset(["inline"]) if rng.random() < 0.5 else frozenset())
        for j in range(rng.randint(1, 2))), generate_directive=rng.choice(PLUGINS))
        for i in range(rng.randint(1, 2))]
    consumers = []
    for i in range(rng.randint(0, 2)):
        wiring = {f"cUse{i}x{j}": (ct, rng.choice(ct.entry_ports))
                  for j, ct in enumerate(rng.choice(providers) for _ in range(rng.randint(0, 2)))}
        attrs = tuple(AttrDecl(f"a{j}", rng.choice(["int32_t", "uint8_t", "ID"]), rng.choice([
            None, Initializer(InitKind.LITERAL, str(rng.randint(0, 99))),
            Initializer(InitKind.C_EXP, f"V{j}{rng.choice(TAILS)}")]), rng.random() < 0.3)
            for j in range(rng.randint(0, 3)))
        vars_ = tuple(VarDecl(f"state{j}", rng.choice(["int32_t", "Option_Ref_a_mut__dev_t__"]),
                              Initializer(InitKind.C_EXP, "None" + rng.choice(TAILS)))
                      for j in range(rng.randint(0, 1)))
        blocks = tuple(FactoryBlock(scope, tuple(
            FactoryWrite(rng.choice(["gen.cfg", "$ct$.cfg", "cfg/$cell$.h"]),
                         f"LINE_{i} $ct${rng.choice(TAILS)}") for _ in range(rng.randint(1, 2))))
            for scope in FactoryScope if rng.random() < 0.4)
        ct = CelltypeDef(f"tCons{i}", tuple(
            PortDecl(PortDirection.CALL, entry.signature_name, port)
            for port, (_, entry) in wiring.items()), tuple(
            PortDecl(PortDirection.ENTRY, rng.choice(sigs).name, f"eCons{i}x{j}")
            for j in range(rng.randint(0, 2))), attrs, vars_, blocks, rng.choice(PLUGINS))
        consumers.append((ct, wiring))
    cells, names = [], {}
    for ct in providers:
        names[ct.name] = [f"P{ct.name[5:]}n{j}" for j in range(rng.randint(1, 2))]
        cells += [CellDef(name, ct.name) for name in names[ct.name]]
    for ct, wiring in consumers:
        for j in range(rng.randint(1, 2)):
            cells.append(CellDef(f"C{ct.name[5:]}n{j}", ct.name, tuple(
                Binding(port, rng.choice(names[target.name]), entry.port_name)
                for port, (target, entry) in wiring.items()), tuple(
                AttrInit(a.name, Initializer(InitKind.LITERAL, str(j)) if rng.random() < 0.5
                         else Initializer(InitKind.C_EXP, f"X{rng.choice(TAILS)}"))
                for a in ct.attrs if rng.random() < 0.5)))
    return CdlUnit(f"u{index}.cdl", tuple(sigs), tuple(providers) + tuple(
        ct for ct, _ in consumers), tuple(cells))


def text_mutant(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        pieces = _PIECE.findall(text)  # (lexeme, the whitespace after it)
        if not pieces:
            break
        i = rng.randrange(len(pieces))
        op = rng.choice(["drop", "duplicate", "swap", "truncate", "replace", "line", "literal"])
        if op == "drop":
            del pieces[i]
        elif op == "duplicate":
            pieces.insert(i, pieces[i])
        elif op == "swap":
            j = rng.randrange(len(pieces))
            (a, ws_a), (b, ws_b) = pieces[i], pieces[j]
            pieces[i], pieces[j] = (b, ws_a), (a, ws_b)
        elif op == "truncate":
            del pieces[i + 1:]
        elif op == "replace":
            pieces[i] = (rng.choice(ODD), pieces[i][1])
        elif op == "line":  # a repeated function, port, attr, var, binding or initializer
            lines = text.splitlines(keepends=True)
            j = rng.randrange(len(lines))
            text = "".join(lines[:j + 1] + lines[j:])
            continue
        elif numbers := [j for j, (lexeme, _) in enumerate(pieces) if lexeme.isdigit()]:
            j = rng.choice(numbers)
            pieces[j] = (rng.choice(LITERALS), pieces[j][1])
        text = "".join(lexeme + ws for lexeme, ws in pieces)
    return text


def corpus():
    """(files, factory texts): `files` is each source set, a list of (name, text); the
    factory texts are mutants of `kernel_rs.cdl`."""
    files = [[(name, golden(name))] for name in ("sample.cdl", "kernel_rs.cdl")]
    rng = random.Random("reference corpus")
    files += [[(f"u{i}.cdl", render_unit(random_unit(rng, i)))] for i in range(UNITS)]
    texts = [f for group in files for f in group]
    files += [list(workloads.build(name, seed, scale).sources.items())
              for name, scale in SCALES.items() for seed in (1, 3, 7)]
    for i in range(MUTANTS):
        _, text = rng.choice(texts)
        files.append([(f"m{i}.cdl", text_mutant(rng, text))])
    rng = random.Random("reference factory corpus")
    return files, [kernel_mutant(rng) for _ in range(FACTORY_MUTANTS)]


def canon(value):
    """`value` as JSON data, with each record's fields in order and each set sorted."""
    if is_record(value):
        return [type(value).__name__, *(canon(getattr(value, f)) for f in fields(value))]
    if isinstance(value, (tuple, list)):
        return [canon(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(canon(v) for v in value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, SourceLoc):
        return str(value)
    return value


def reference_outputs(patch) -> dict:
    """Each reference's outputs over the corpus, as data `json` writes; `patch` is a monkeypatch
    context, which puts `reference_factory` in `linker.resolve` for the factory outputs."""
    files, factory_texts = corpus()
    out = {name: [] for name in ("tokenizer", "parser", "validate", "definition", "factory")}
    patch.setattr(linker, "_attr_text", reference_attr_text)
    patch.setattr(linker, "_render_factory", reference_factory.render_factory)
    for group in files:
        units = []
        for name, text in group:
            tokens, diags = reference_tokenizer.tokenize(text, name)
            out["tokenizer"].append([[[t.kind, t.text, str(t.location)] for t in tokens],
                                     [str(d) for d in diags]])
            try:
                result = reference_parser.parse_unit(text, name)
            except AttributeError:  # it reads a missing token at the end of some inputs
                out["parser"].append("AttributeError")
                units.append(None)
                continue
            out["parser"].append([canon(result.unit), [str(d) for d in result.diagnostics]])
            units.append(result.unit)
            if result.unit is not None:
                out["validate"].append([str(d) for d in reference_validate.validate_unit(
                    result.unit)])
        if None in units:
            continue
        model, diags = linker.resolve(units, "RustGenPlugin")
        out["factory"].append([[str(d) for d in diags], model and model.config_writes])
        if model is not None:
            out["definition"] += [reference_definition.emit_definition(
                ct, model.cells_of(ct.name), model) for ct in linker.plan_emission(
                model).definition_cts]
    for text in factory_texts:
        model, diags = linker.resolve([spell_cell(parse_unit(text, "kernel_rs.cdl").unit)])
        out["factory"].append([[str(d) for d in diags], model and [
            model.config_writes, [[rc.cell.name, rc.attr_texts] for rc in model.cells]]])
    return out


def digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, ensure_ascii=False).encode()).hexdigest()


# each reference's outputs: how many, and their digest
PINNED = {
    "tokenizer": (377, "fd8307512ee3826baa5ddbf5e85ae857b3c3f9379706bd92f65dd2d718fea53c"),
    "parser": (377, "b790591130d1529dd8397c532a3588f996064792fec08ad23804c8172e3fe4d0"),
    "validate": (119, "bf17c0b5fce2d733a704005a7b291bb61d53bc8b0e562b00741a864f683b0fe1"),
    "definition": (165, "b3be69b4d18af3eb476bc6910b7ba8494cfc416e4babe25179f42d9575277b74"),
    "factory": (263, "ecb40c6fff4fc21c1dc92633ac0d1d7dbc3a1aee7092cfbae350bdf02e625d51"),
}


@pytest.fixture(scope="module")
def outputs():
    with pytest.MonkeyPatch.context() as patch:
        return reference_outputs(patch)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_each_reference_gives_its_pinned_outputs_on_the_corpus(outputs, name):
    assert (len(outputs[name]), digest(outputs[name])) == PINNED[name]
