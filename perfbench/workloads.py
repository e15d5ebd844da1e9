"""Seeded generators for the three benchmark workloads.

Each generator returns a `Workload`: the input files handed to tecsrust
and everything the oracle expects of the output tree. Expected values are
derived here, from the generator's own names, templates and type table,
and never from tecsrust's output. A seed changes names, values and orders
but not the sizes, so runs on different seeds measure the same amount of
work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("app_16k", "rtos_tasks", "api_regen")

WHY = {
    "app_16k": "Large application graph (16k cells, 800 celltypes): the only workload "
               "where linker paths carry weight; writes a fresh 1.6k-file tree.",
    "rtos_tasks": "TOPPERS flow: 8k task cells, 32k factory config lines, then "
                  "bindgen-lite on kernel_cfg.h; emit_rtos and header_const work, "
                  "linker almost none.",
    "api_regen": "Edit-and-regenerate loop: 400 signatures x 40 functions regenerated "
                 "over a tree of hand-edited skeletons that must survive untouched.",
}

# C type -> Rust type, the mapping the paper gives for scalar parameters.
# Names missing from the table pass through verbatim.
_C_TO_RUST = {
    "int32_t": "i32", "uint8_t": "u8", "uint16_t": "u16", "int64_t": "i64",
    "double": "f64", "pbio_port_id_t": "pbio_port_id_t",
}
_C_TYPES = tuple(_C_TO_RUST)


@dataclass
class Expectation:
    """What the oracle checks in one output tree."""
    files: set                                                     # every relative path
    exact: Dict[str, str] = field(default_factory=dict)            # path -> full content
    static_counts: Dict[str, int] = field(default_factory=dict)    # path -> `pub static` lines
    contains: Dict[str, List[str]] = field(default_factory=dict)   # path -> required lines
    fn_counts: Dict[str, int] = field(default_factory=dict)        # contract -> `fn` lines
    preserved: Dict[str, str] = field(default_factory=dict)        # hand-edited skeletons
    warnings: int = 0                                              # bindgen-lite warnings


@dataclass
class Workload:
    name: str
    seed: int
    sources: Dict[str, str]      # input file name -> text, in command-line order
    header: Optional[str]        # kernel header for bindgen-lite, if the flow runs it
    cells: int
    celltypes: int
    signatures: int
    expect: Expectation

    def size_params(self) -> dict:
        return {"cells": self.cells, "celltypes": self.celltypes,
                "signatures": self.signatures,
                "input_bytes": sum(len(t.encode()) for t in self.sources.values())}

    def write_inputs(self, in_dir: Path) -> Tuple[List[Path], Optional[Path]]:
        """Write the CDL files (and header) into `in_dir`; return their paths."""
        in_dir.mkdir(parents=True, exist_ok=True)
        cdl = []
        for fname, text in self.sources.items():
            (in_dir / fname).write_text(text, encoding="utf-8")
            cdl.append(in_dir / fname)
        header = None
        if self.header is not None:
            header = in_dir / "kernel_cfg.h"
            header.write_text(self.header, encoding="utf-8")
        return cdl, header

    def plant_skeletons(self, out_dir: Path) -> None:
        """Replace generated skeletons with the developer's hand-edited bodies."""
        for rel, text in self.expect.preserved.items():
            (out_dir / rel).write_text(text, encoding="utf-8")


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Generate workload `name` from `seed`; `scale` shrinks the main dimension."""
    gen = {"app_16k": _app, "rtos_tasks": _rtos, "api_regen": _api}[name]
    return gen(seed, scale, random.Random(f"{name}/{seed}"))


def _directive() -> str:
    return '[generate(RustGenPlugin, "lib")]'


def _contract(trait: str, fn_lines: List[str]) -> str:
    return "\n".join([f"pub trait {trait} {{"] + [f"  {ln};" for ln in fn_lines] + ["}"]) + "\n"


# --- app_16k -----------------------------------------------------------------

def _app(seed: int, scale: float, rng: random.Random) -> Workload:
    n_consumers = round(800 * scale)
    cells_per = 20
    n_providers = 20

    iface = [
        "signature sProvide {",
        "    int32_t get( [in] int32_t key, [out] int32_t* value );",
        "    void reset( void );",
        "};",
        "",
        _directive(),
        "celltype tProvider {",
        "    entry sProvide eProvide;",
        "    attr {",
        "        int32_t level = 0;",
        "    };",
        "    var {",
        "        int32_t hits = 0;",
        "    };",
        "    factory {",
        '        write("provider.cfg", "PROVIDER($cell$, $level$);");',
        "    };",
        "};",
        "",
    ]
    cfg_lines = []
    for p in range(n_providers):
        level = rng.randrange(1, 1000)
        iface += [_directive(), f"cell tProvider Prov{p:02d} {{", f"    level = {level};", "};", ""]
        cfg_lines.append(f"PROVIDER(Prov{p:02d}, {level});")

    comps: List[str] = []
    exp = Expectation(files={"s_provide.rs", "t_provider.rs", "t_provider_impl.rs",
                             "provider.cfg"})
    exp.exact["s_provide.rs"] = _contract("SProvide", [
        "fn get(&self, key: &i32, value: &mut i32) -> i32", "fn reset(&self)"])
    exp.exact["provider.cfg"] = "\n".join(cfg_lines) + "\n"
    exp.static_counts["t_provider.rs"] = 3 * n_providers
    for i in range(n_consumers):
        ct = f"tConsumer{i:04d}"
        comps += [_directive(), f"celltype {ct} {{",
                  "    call sProvide cProvide;",
                  "    entry sProvide eConsume;",
                  "    attr {",
                  '        int32_t tag = C_EXP("TAG_$cell$");',
                  "    };",
                  "};", ""]
        lines = []
        for j in range(cells_per):
            cell = f"Cons{i:04d}x{j:02d}"
            value = f"K{rng.getrandbits(32):08x}"
            provider = f"Prov{rng.randrange(n_providers):02d}"
            comps += [_directive(), f"cell {ct} {cell} {{",
                      f"    cProvide = {provider}.eProvide;",
                      f'    tag = C_EXP("{value}_$cell$");',
                      "};", ""]
            lines += [f"  c_provide: &EPROVIDEFOR{provider.upper()},", f"  tag: {value}_{cell},"]
        defn = f"t_consumer{i:04d}.rs"
        exp.files |= {defn, f"t_consumer{i:04d}_impl.rs"}
        exp.static_counts[defn] = 2 * cells_per
        exp.contains[defn] = lines
    return Workload(
        "app_16k", seed,
        {"app_interface.cdl": "\n".join(iface), "app_components.cdl": "\n".join(comps)},
        None, n_providers + n_consumers * cells_per, 1 + n_consumers, 1, exp)


# --- rtos_tasks ----------------------------------------------------------------

_TASK_WRITES = (
    ("tecsgen.cfg",
     "CRE_TSK(TSKID_$id$, { $attribute$, $exinf$, tecs_$ct$_main, $priority$, "
     "$stackSize$, NULL });"),
    ("tecsgen.cfg", "CRE_SEM(SEMID_$cell$, { TA_TPRI, 0, 1 });"),
    ("tecsgen.cfg", "CRE_FLG(FLGID_$cell$, { TA_CLR, $exinf$ });"),
    ("$ct$_tecsgen.h", "#define TOPPERS_$cell$_TSKID TSKID_$id$"),
)
_TASK_FACTORY = (
    ("tecsgen.cfg", '#include \\"$ct$_tecsgen.h\\"'),
    ("$ct$_factory.h", '/* $ct$: default $attribute$, exinf $exinf$ */ '
                       '#include \\"kernel_cfg.h\\"'),
)


def _fill(template: str, env: Dict[str, str]) -> str:
    out = template
    for k, v in env.items():
        out = out.replace(f"${k}$", v)
    return out.replace('\\"', '"')


def _rtos(seed: int, scale: float, rng: random.Random) -> Workload:
    n_types = 8
    per_type = round(1000 * scale)
    n_tasks = n_types * per_type
    cts = [f"tTask{k}" for k in range(n_types)]

    text = ["signature sTask {", "    void wakeup( void );",
            "    void activate( [in] int32_t code );", "};", ""]
    for ct in cts:
        text += ['[generate(ItronrsGenPlugin, "lib")]', f"celltype {ct} {{",
                 "    [inline] entry sTask eTask;",
                 "    attr {",
                 '        [omit] ID id = C_EXP("TSKID_$id$");',
                 '        TaskRef task_ref = C_EXP("unsafe{TaskRef::from_raw_nonnull('
                 'NonZeroI32::new(TSKID_$id$).unwrap())}");',
                 '        [omit] ATR attribute = C_EXP("TA_NULL");',
                 "        [omit] intptr_t exinf = 0;",
                 "        [omit] PRI priority;",
                 "        [omit] size_t stackSize;",
                 "    };",
                 "    var {",
                 '        Option_Ref_a_mut__tcb_t__ tcb = C_EXP("None");',
                 "    };",
                 "    factory {"]
        text += [f'        write("{t}", "{ln}");' for t, ln in _TASK_WRITES]
        text += ["    };", "    FACTORY {"]
        text += [f'        write("{t}", "{ln}");' for t, ln in _TASK_FACTORY]
        text += ["    };", "};", ""]

    ids = list(range(1, n_tasks + 1))
    rng.shuffle(ids)
    tasks = [(cts[k % n_types], f"Task{k % n_types}_{k // n_types:04d}", ids[k])
             for k in range(n_tasks)]
    rng.shuffle(tasks)  # declaration order interleaves the celltypes

    grouped: Dict[str, List[str]] = {}
    for ct in cts:
        env = {"ct": ct, "attribute": "TA_NULL", "exinf": "0"}
        for target, line in _TASK_FACTORY:
            grouped.setdefault(_fill(target, env), []).append(_fill(line, env))
    exp = Expectation(files={"s_task.rs", "kernel_cfg.rs"})
    static_lines: Dict[str, List[str]] = {ct: [] for ct in cts}
    for ct, cell, tid in tasks:
        attribute = rng.choice(("TA_ACT", "TA_NULL"))
        priority = f"PRI_{rng.randrange(1, 17)}"
        stack = f"STK_{rng.choice((512, 1024, 2048, 4096))}"
        text += ['[generate(ItronrsGenPlugin, "lib")]', f"cell {ct} {cell} {{",
                 f"    id = {tid};", f'    attribute = C_EXP("{attribute}");',
                 f'    priority = C_EXP("{priority}");', f'    stackSize = C_EXP("{stack}");',
                 "};", ""]
        env = {"ct": ct, "cell": cell, "id": str(tid), "attribute": attribute,
               "exinf": "0", "priority": priority, "stackSize": stack}
        for target, line in _TASK_WRITES:
            grouped.setdefault(_fill(target, env), []).append(_fill(line, env))
        static_lines[ct].append(
            f"  task_ref: unsafe{{TaskRef::from_raw_nonnull(NonZeroI32::new(TSKID_{tid})"
            f".unwrap())}},")

    for target, lines in grouped.items():
        exp.files.add(target)
        exp.exact[target] = "\n".join(lines) + "\n"
    for k, ct in enumerate(cts):
        exp.files |= {f"t_task{k}.rs", f"t_task{k}_impl.rs"}
        exp.static_counts[f"t_task{k}.rs"] = 3 * per_type
        exp.contains[f"t_task{k}.rs"] = static_lines[ct]
    exp.exact["s_task.rs"] = _contract("STask", ["fn wakeup(&self)",
                                                 "fn activate(&self, code: &i32)"])

    literal = [("TNUM_TSKID", str(n_tasks))] + [(f"TSKID_{t}", str(t))
                                                  for t in sorted(ids)]
    literal.insert(rng.randrange(1, len(literal)), ("TMAX_TPRI", "16"))
    defines = [f"#define {n}\t{v}" for n, v in literal]
    # bindgen-lite must skip each of these with one warning
    nonliteral = [f"#define TMIN_TPRI ({rng.randrange(1, 4)})",
                  "#define TSKSTK(n) ((n) * 4)",
                  f"#define TOPPERS_CFG_REV 0x{rng.getrandbits(16):04x}u",
                  "#define TOPPERS_SUPPORT_PROTECT TRUE"]
    for line in nonliteral:
        defines.insert(rng.randrange(len(defines) + 1), line)
    header = (["/* kernel_cfg.h: generated by the configurator */",
               "#ifndef TOPPERS_KERNEL_CFG_H", "#define TOPPERS_KERNEL_CFG_H"]
              + defines + ["#endif /* TOPPERS_KERNEL_CFG_H */"])
    exp.exact["kernel_cfg.rs"] = "".join(f"pub const {n}: i32 = {v};\n" for n, v in literal)
    exp.warnings = len(nonliteral) + 1  # the value-less include guard too
    return Workload("rtos_tasks", seed, {"tasks.cdl": "\n".join(text)},
                    "\n".join(header) + "\n", n_tasks, n_types, 1, exp)


# --- api_regen -----------------------------------------------------------------

def _api(seed: int, scale: float, rng: random.Random) -> Workload:
    n_fns, n_params, ports_per = 40, 4, 4
    n_cts = round(100 * scale)
    n_sigs = n_cts * ports_per

    sig_text: List[str] = []
    exp = Expectation(files=set())
    for s in range(n_sigs):
        sig_text.append(f"signature sApi{s:03d} {{")
        fn_lines = []
        for f in range(n_fns):
            ret = rng.choice(("void", "int32_t"))
            params, rust = [], ["&self"]
            for p in range(n_params):
                c_type = rng.choice(_C_TYPES)
                if rng.random() < 0.4:
                    params.append(f"[out] {c_type}* p{p}")
                    rust.append(f"p{p}: &mut {_C_TO_RUST[c_type]}")
                else:
                    ptr = "*" if rng.random() < 0.3 else ""
                    params.append(f"[in] {c_type}{ptr} p{p}")
                    rust.append(f"p{p}: &{_C_TO_RUST[c_type]}")
            name = f"op{f:02d}_{rng.choice(('get', 'set', 'poll', 'start', 'stop'))}"
            sig_text.append(f"    {ret} {name}( {', '.join(params)} );")
            tail = " -> i32" if ret == "int32_t" else ""
            fn_lines.append(f"fn {name}({', '.join(rust)}){tail}")
        sig_text += ["};", ""]
        contract = f"s_api{s:03d}.rs"
        exp.files.add(contract)
        exp.exact[contract] = _contract(f"SApi{s:03d}", fn_lines)
        exp.fn_counts[contract] = n_fns

    order = list(range(n_sigs))
    rng.shuffle(order)
    ct_text: List[str] = []
    for c in range(n_cts):
        ct = f"tServer{c:03d}"
        ct_text += [_directive(), f"celltype {ct} {{"]
        for s in order[c * ports_per:(c + 1) * ports_per]:
            ct_text.append(f"    entry sApi{s:03d} eApi{s:03d};")
        ct_text += ["};", "", _directive(), f"cell {ct} Server{c:03d} {{", "};", ""]
        exp.files |= {f"t_server{c:03d}.rs", f"t_server{c:03d}_impl.rs"}
        exp.static_counts[f"t_server{c:03d}.rs"] = 1 + ports_per
        exp.preserved[f"t_server{c:03d}_impl.rs"] = (
            f"// Hand-written bodies for {ct}; regeneration must keep this file.\n"
            f"// revision {rng.getrandbits(64):016x}\n"
            f"use crate::t_server{c:03d}::*;\n")
    return Workload(
        "api_regen", seed,
        {"api_signatures.cdl": "\n".join(sig_text), "api_servers.cdl": "\n".join(ct_text)},
        None, n_cts, n_cts, n_sigs, exp)
