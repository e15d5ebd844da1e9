"""Command-line driver: parse CDL inputs, resolve, emit files, report.

Exit codes: 0 success, 1 diagnostics, 2 usage or I/O failure. Any error
diagnostic suppresses all file writes.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Set, Tuple, Union

from . import header_const
from .diagnostics import Diagnostic, LineIndex, error, has_errors

if TYPE_CHECKING:  # the compile pipeline is imported where it runs: bindgen-lite loads none
    from .emit_core import GeneratedFile, SkeletonFile
    from .linker import EmissionPlan, ResolvedModel

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2


def generate(sources: List[Tuple[str, str]], default_plugin: Optional[str] = None
             ) -> Tuple[List[Union[GeneratedFile, SkeletonFile]], Optional[EmissionPlan],
                        Optional[ResolvedModel], List[Diagnostic]]:
    """Full pipeline over (source_name, text) pairs.

    Returns the output files, the plan (with report filled in), the
    resolved model, and all diagnostics. Files are empty whenever any
    error diagnostic occurred. Skeletons are rendered only when their
    `content` is read (see `SkeletonFile`).
    """
    from . import emit_core, emit_rtos
    from .emit_core import GeneratedFile, SkeletonFile, WritePolicy
    from .frontend import parse_unit
    from .linker import GenerationReport, plan_emission, resolve
    from .model import validate_unit

    diags: List[Diagnostic] = []
    units = []
    for name, text in sources:
        result = parse_unit(text, name)
        diags.extend(result.diagnostics)
        if result.unit is not None:
            diags.extend(validate_unit(result.unit))
            units.append(result.unit)
    if has_errors(diags):
        return [], None, None, diags

    model, link_diags = resolve(units, default_plugin)
    diags.extend(link_diags)
    if model is None:
        return [], None, None, diags

    plan = plan_emission(model)
    files: List[Union[GeneratedFile, SkeletonFile]] = []

    for sig in plan.contract_sigs:
        files.append(emit_core.emit_contract(sig))
    for ct in plan.definition_cts:
        files.append(emit_core.emit_definition(ct, model.cells_of(ct.name), model))
    files.extend(SkeletonFile(path, emit_core.skeleton_lines(ct, model), ct, model)
                 for ct, path in zip(plan.skeleton_cts, plan.skeleton_files()))

    for target, content in emit_rtos.config_files(plan.config_writes).items():
        files.append(GeneratedFile(target, content, WritePolicy.OVERWRITE))

    plan.report = GenerationReport({f.path: f.lines for f in files},
                                   {f.path for f in files if isinstance(f, SkeletonFile)})
    return files, plan, model, diags


def write_files(files: List[Union[GeneratedFile, SkeletonFile]], out_dir: Path) -> List[str]:
    """Materialize output files, honoring each file's overwrite policy.

    Returns every output not skipped; a skipped skeleton is never rendered.
    An OVERWRITE output whose file already holds its bytes is never opened
    for writing, so it keeps its mtime and a build tool sees no change. Each
    output directory is made once.
    """
    from .emit_core import WritePolicy

    out_dir.mkdir(parents=True, exist_ok=True)
    root = "" if str(out_dir) == "." else os.path.join(out_dir, "")  # `out_dir / f.path`, as str
    made: Set[str] = set()  # directories under `out_dir`
    written = []
    for f in files:
        path = root + f.path
        if f.policy is WritePolicy.SKIP_IF_EXISTS and os.path.lexists(path):  # a link, dangling too
            continue
        if "/" in f.path and (parent := os.path.dirname(path)) not in made:
            Path(parent).mkdir(parents=True, exist_ok=True)
            made.add(parent)
        _write_bytes(path, f.content.encode("utf-8"))
        written.append(f.path)
    return written


def _write_bytes(path: str, data: bytes) -> None:
    """Write `data` unless `path` already holds exactly these bytes, compared by size,
    then bytes: an unchanged output is never opened for writing, so it keeps its mtime.
    A file that cannot be read or compared is written. The compare follows a symlink at
    `path`; a write replaces the link with a file."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            if os.fstat(fd).st_size == len(data) and os.read(fd, len(data)) == data:
                return
        finally:
            os.close(fd)
    except OSError:  # e.g. absent, or a directory at `path`: the write below reports it
        pass
    try:
        out = open(path, "wb", opener=_open_nofollow)
    except OSError as exc:  # a symlink at `path`: replaced by a file, never written through
        if exc.errno != errno.ELOOP:
            raise
        os.unlink(path)
        out = open(path, "wb", opener=_open_nofollow)
    with out:
        out.write(data)


def _open_nofollow(path: str, flags: int) -> int:
    return os.open(path, flags | os.O_NOFOLLOW, 0o666)  # as `open()`: the umask applies


def _linked_dir(out_dir: Path, paths: List[str]) -> Optional[str]:
    """The first directory below `out_dir` that one of `paths` (relative to it) is written
    into and that is a symlink, dangling or not. A path with no directory costs no call."""
    dirs = dict.fromkeys(p[:i] for p in paths if "/" in p for i, c in enumerate(p) if c == "/")
    return next((d for d in dirs if os.path.islink(os.path.join(out_dir, d))), None)


def emit_diagram(model: ResolvedModel) -> str:
    """DOT digraph: one node per cell, one labeled edge per binding."""
    lines = ["digraph components {"]
    if model.cells:
        lines.append('  node [shape=box];')
    for rc in model.cells:
        label = f"{rc.celltype.name}\\n{rc.cell.name}"
        lines.append(f'  "{rc.cell.name}" [label="{label}"];')
    for rc in model.cells:
        for port in rc.celltype.call_ports:
            rb = rc.bindings.get(port.port_name)
            if rb is not None:
                lines.append(f'  "{rc.cell.name}" -> "{rb.target_cell.cell.name}" '
                             f'[label="{port.signature_name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def report(plan: EmissionPlan) -> str:
    """Fixed-width per-file line-count table plus the generated/stub totals."""
    rep = plan.report
    rows = [(path, rep.file_lines[path],
             "skeleton" if path in rep.skeleton_files else "generated")
            for path in sorted(rep.file_lines)]
    name_w = max([len("file")] + [len(r[0]) for r in rows])
    lines = [f"{'file':<{name_w}}  {'lines':>5}  kind",
             f"{'-' * name_w}  {'-' * 5}  {'-' * 9}"]
    for path, count, kind in rows:
        lines.append(f"{path:<{name_w}}  {count:>5}  {kind}")
    lines.append(f"{'-' * name_w}  {'-' * 5}  {'-' * 9}")
    lines.append(f"{'total auto-generated':<{name_w}}  {rep.auto_total:>5}")
    lines.append(f"{'total skeleton stubs':<{name_w}}  {rep.skeleton_total:>5}")
    return "\n".join(lines) + "\n"


def _read(name: str) -> Tuple[Optional[str], int]:
    """File `name`'s text, or None and an exit code after printing why there is none."""
    try:
        return Path(name).read_text(encoding="utf-8-sig"), EXIT_OK  # a leading BOM is no text
    except OSError as exc:
        print(f"error: cannot read {name}: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    except UnicodeDecodeError as exc:  # exc.object: the text's bytes; newlines as read_text has them
        prefix = exc.object[:exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        print(error("bad-encoding", f"input is not valid UTF-8 (byte {exc.object[exc.start]:#04x})",
                    LineIndex(prefix, name).locate(len(prefix))), file=sys.stderr)
        return None, EXIT_DIAGNOSTICS


def _parse(parser, argv: List[str]) -> Tuple[Optional[argparse.Namespace], int]:
    """`argv` parsed, or None and an exit code (0 after --help, else 2) after argparse's output."""
    try:
        return parser.parse_args(argv), EXIT_OK
    except SystemExit as exc:
        return None, EXIT_OK if exc.code == 0 else EXIT_USAGE


def _run_bindgen_lite(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="tecsrust bindgen-lite",
        description="Convert integer #define macros in a kernel header to Rust constants.")
    parser.add_argument("header", help="kernel header file (e.g. kernel_cfg.h)")
    parser.add_argument("-o", "--output", required=True, help="output .rs file")
    args, code = _parse(parser, argv)
    if args is None:
        return code
    text, code = _read(args.header)
    if text is None:
        return code
    converted, diags = header_const.convert_defines(text, args.header)
    for d in diags:
        print(d, file=sys.stderr)
    try:
        _write_bytes(str(Path(args.output)), converted.encode("utf-8"))
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def run(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "bindgen-lite":
        return _run_bindgen_lite(argv[1:])

    from .model import KNOWN_PLUGINS

    parser = argparse.ArgumentParser(
        prog="tecsrust",
        description="Generate Rust component sources and RTOS configuration from CDL files.")
    parser.add_argument("inputs", nargs="+", help="input .cdl files")
    parser.add_argument("--plugin", choices=list(KNOWN_PLUGINS),
                        help="plugin applied to celltypes without a [generate(...)] directive")
    parser.add_argument("--out", default="gen", help="output directory (default: gen)")
    parser.add_argument("--diagram", help="also write a DOT component diagram to this path")
    parser.add_argument("--report", action="store_true",
                        help="print the per-file generation report")
    args, code = _parse(parser, argv)
    if args is None:
        return code

    sources = []
    for name in args.inputs:
        text, code = _read(name)
        if text is None:
            return code
        sources.append((name, text))

    files, plan, model, diags = generate(sources, args.plugin)
    for d in diags:
        print(d, file=sys.stderr)
    if has_errors(diags):
        return EXIT_DIAGNOSTICS

    out_dir = Path(args.out)
    diagram = Path(args.diagram) if args.diagram else None
    paths = [f.path for f in files]  # each relative to `out_dir`
    if diagram:  # written before the tree: it may take no path that the tree needs
        at, out = diagram.resolve(), out_dir.resolve()
        outputs = {(out_dir / f.path).resolve() for f in files}
        if at in outputs or at in {out, *out.parents}.union(*(p.parents for p in outputs)):
            what = "a generated file" if at in outputs else "a directory outputs are written into"
            print(f"error: --diagram {args.diagram} names {what}", file=sys.stderr)
            return EXIT_USAGE
        below = os.path.relpath(diagram, out_dir)  # as written: no link on the way is followed
        if below.split(os.sep)[0] != os.pardir:
            paths.append(below)
    linked = _linked_dir(out_dir, paths)
    if linked is not None:
        print(f"error: {out_dir / linked} is a symlink: nothing is written through it",
              file=sys.stderr)
        return EXIT_USAGE
    try:  # the diagram first: one that cannot be written leaves no tree behind
        if diagram:
            if out in at.parents:  # made like an output's directory
                diagram.parent.mkdir(parents=True, exist_ok=True)
            _write_bytes(str(diagram), emit_diagram(model).encode("utf-8"))
        written = write_files(files, out_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.report:
        print(report(plan), end="")
    else:
        rep = plan.report
        print(f"generated {len(files)} files ({len(written)} written, "
              f"{rep.auto_total} generated lines, {rep.skeleton_total} stub lines) "
              f"under {out_dir}")
    return EXIT_OK


def main() -> None:
    gc.disable()  # one build per process, and the model it builds lives until exit
    code = run()
    if not _observed():
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        except (AttributeError, OSError):  # stdout None (fd 1 closed) or broken: exit as usual
            pass
        else:  # nothing is left to write: skip tearing down every module and model object
            os._exit(code)
    raise SystemExit(code)


def _observed() -> bool:
    """Whether a tracer or profiler runs, which reports only at a normal exit (`cProfile`
    and coverage use `sys.monitoring` from Python 3.12 on)."""
    tools = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or tools is not None and any(tools.get_tool(i) is not None for i in range(6)))


if __name__ == "__main__":
    main()
