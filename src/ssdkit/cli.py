"""Command-line harness: equivalence checks, timing sweeps, text embedding.

Exit codes: 0 on success, 1 when an equivalence check fails, 2 for usage or
input errors, among them an --out whose directory does not exist, found
before any work is done.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .bench import (BENCH_SPEC, STRATEGIES, SUMMARY_FIELDS, EquivalenceConfig, SweepConfig,
                    _cell_call, read_records, run_equivalence, run_sweep, summarize_records,
                    write_records)
from .chunked import FAULT_MODES
from .embedding import embed_sequence, format_query, tokenize_words
from .errors import SsdError, ValidationError
from .model_io import atomic_write, generate_model, load_model, load_model_spec, spec_to_config
from .stack import _CPUS, ModelSpec, StackedModel


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in _name_list(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


def _given(args, cls, make=None, **extra):
    """make (default cls) called with the flags given for cls's fields, plus extra."""
    return (make or cls)(**{f.name: getattr(args, f.name) for f in fields(cls)
                            if hasattr(args, f.name)}, **extra)


def _load_model_arg(args) -> StackedModel:
    if args.model:
        if str(args.model).endswith(".json"):
            return generate_model(load_model_spec(args.model))
        return load_model(args.model)
    return generate_model(_given(args, ModelSpec))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdkit",
        description="Equivalence checks, sweeps, and embeddings for chunked "
                    "state-space inference.")
    sub = parser.add_subparsers(dest="command", required=True)
    # equivalence and sweep: a flag absent from the command line is absent
    # from the namespace, so its config field keeps the config's default
    eq = sub.add_parser("equivalence", argument_default=argparse.SUPPRESS,
                        help="cross-check all evaluation routes")
    eq.add_argument("--seed", type=int)
    eq.add_argument("--tolerance", type=float)
    eq.add_argument("--grid-t", dest="t_grid", type=_int_list, help="sequence lengths")
    eq.add_argument("--grid-q", dest="q_grid", type=_int_list, help="chunk sizes")
    eq.add_argument("--grid-v", dest="v_grid", type=_int_list,
                    help="vertical block lengths")
    eq.add_argument("--inject-fault", dest="fault", choices=FAULT_MODES,
                    help="disable one kernel ingredient; the suite must then fail "
                         "on every multi-chunk instance")
    eq.add_argument("--out", default=None, help="write the full report as JSON")

    sw = sub.add_parser("sweep", argument_default=argparse.SUPPRESS,
                        help="time forward passes over a grid")
    sw.add_argument("--model", default=None, help="model file (.ssdm) or model spec (.json)")
    sw.add_argument("--seed", type=int)
    sw.add_argument("--grid-t", dest="t_grid", type=_int_list)
    sw.add_argument("--grid-q", dest="q_grid", type=_int_list)
    sw.add_argument("--grid-v", dest="v_grid", type=_int_list,
                    help="absolute vertical block lengths (default: Q, 2Q, 4Q per Q)")
    sw.add_argument("--grid-batch", dest="batch_grid", type=_int_list)
    sw.add_argument("--strategy", dest="strategies", type=_name_list,
                    help=f"comma-separated subset of {','.join(STRATEGIES)}; dense is "
                         "the chunked kernel at one chunk per block")
    sw.add_argument("--reps", type=int)
    sw.add_argument("--warmup", type=int)
    sw.add_argument("--preset", choices=("bench",), default=None,
                    help="bench: the BENCH grid (flags given replace its fields) on the "
                         "benchmark's model unless --model is given, written as one JSON "
                         "document of per-cell summaries in place of the CSV")
    sw.add_argument("--out", required=True, help="output CSV path (JSON with --preset)")

    em = sub.add_parser("embed", help="embed a text file")
    em.add_argument("input", help="text file to embed, or - for stdin")
    # a model file or spec fixes the parameters, so a seed would go unread
    source = em.add_mutually_exclusive_group()
    source.add_argument("--model", help="model file (.ssdm) or model spec (.json)")
    source.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed of a generated default model")
    em.add_argument("--vertical", action="store_true",
                    help="use the vertical (bounded-memory) schedule")
    em.add_argument("--q", type=int, default=None, help="chunk size override")
    em.add_argument("--v", type=int, default=None,
                    help="vertical block length override (with --vertical)")
    em.add_argument("--format-query", metavar="PROMPT", default=None,
                    help="render the instruction template around the input first")
    em.add_argument("--out", help="write the vector to a file instead of stdout")

    rp = sub.add_parser("report", help="aggregate a sweep CSV")
    rp.add_argument("csv", help="sweep CSV produced by the sweep subcommand")
    rp.add_argument("--out", help="write the aggregate CSV here instead of stdout")
    return parser


def _cmd_equivalence(args) -> int:
    config = _given(args, EquivalenceConfig)
    report = run_equivalence(config)
    for check in report.checks:
        print(check.line())
    status = "PASS" if report.passed else "FAIL"
    print(f"[{status}] {len(report.checks)} checks, "
          f"max_rel_err={report.max_rel_err:.3e}, fault={report.config.fault}")
    if args.out:
        with atomic_write(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
    return 0 if report.passed else 1


def _source_sha256() -> str:
    """sha256 of the package's ``*.py`` files in name order, hashed as the
    lines ``<sha256 of the file>  <name>`` that ``sha256sum`` prints."""
    root = os.path.dirname(__file__)
    lines = []
    for name in sorted(n for n in os.listdir(root) if n.endswith(".py")):
        with open(os.path.join(root, name), "rb") as fh:
            lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _environment() -> dict:
    """Where a timing ran: Python, NumPy, its BLAS and BLAS threads (None when
    the library cannot be asked), CPUs usable, the git revision of the
    source with whether it had uncommitted changes ("unknown" and None
    outside a checkout), and ``_source_sha256`` of the code that ran."""
    import platform
    import subprocess

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy < 1.26, or no BLAS entry
        blas = {}

    def git(*args) -> str | None:
        try:
            done = subprocess.run(["git", *args], cwd=os.path.dirname(__file__),
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    revision = git("rev-parse", "HEAD")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
            "blas_threads": _blas_threads(), "cpus": _CPUS,
            "git_revision": revision or "unknown",
            "git_dirty": None if revision is None else bool(git("status", "--porcelain",
                                                                  "--untracked-files=no")),
            "source_sha256": _source_sha256()}


def _openblas():
    """(get, set) of the thread count of the OpenBLAS bundled with NumPy, or None."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _blas_threads() -> int | None:
    """The thread count of the OpenBLAS bundled with NumPy, or None."""
    blas = _openblas()
    return None if blas is None else blas[0]()


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread inside the block, its count restored after it;
    nothing is set when NumPy's OpenBLAS cannot be asked."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _bench_document(model: StackedModel, config: SweepConfig, log) -> dict:
    """``run_sweep`` summarized per cell: tokens/s as the min and median over
    its reps, the ledger peak, per-stage flops, and the tracemalloc peak of
    one more, untimed call (after the timed ones) with its ratio to the
    ledger's bytes."""
    import statistics
    import tracemalloc

    cells: dict[tuple, list] = {}
    for rec in run_sweep(model, config, log=log):
        cells.setdefault(rec.sort_key()[:5], []).append(rec)
    rows = []
    for cell, group in cells.items():
        call = _cell_call(model, config, cell)
        tracemalloc.start()
        try:
            call()
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        strategy, t, batch, q, v = cell
        walls, rec = [r.wall_time_s for r in group], group[0]
        rows.append({"strategy": strategy, "T": t, "batch": batch, "Q": q, "V": v,
                     "reps": len(walls),
                     "tokens_per_s_min": batch * t / max(walls),
                     "tokens_per_s_median": batch * t / statistics.median(walls),
                     "peak_elems": rec.peak_elems,
                     "flops": {"intra": rec.flops_intra, "propagate": rec.flops_prop,
                               "inter": rec.flops_inter},
                     "traced_peak_bytes": traced,
                     "traced_over_ledger": traced / (8 * rec.peak_elems)})
    return {"environment": _environment(), "model_spec": spec_to_config(model.spec),
            "config": asdict(config),
            "timing_note": "one infer call per rep, coefficient generation included; "
                           "token setup excluded",
            "cells": rows}


def _cmd_sweep(args) -> int:
    bench = args.preset == "bench"
    if bench and not args.model:  # the benchmark's model, with the seed given if any
        model = generate_model(_given(args, ModelSpec, lambda **f: replace(BENCH_SPEC, **f)))
    else:
        model = _load_model_arg(args)

    def log(msg):
        print(msg, file=sys.stderr)

    if bench:
        with _one_blas_thread():  # as every committed BENCH file was timed
            doc = _bench_document(model, _given(args, SweepConfig, SweepConfig.bench), log)
        with atomic_write(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        print(f"wrote {len(doc['cells'])} cells to {args.out}", file=sys.stderr)
        return 0
    config = _given(args, SweepConfig)
    records = run_sweep(model, config, log=log)
    write_records(args.out, records)
    meta = {
        "model_spec": spec_to_config(model.spec),
        "reps": config.reps,
        "warmup": config.warmup,
        "timing_note": "wall_time_s spans one forward pass, including per-layer "
                       "coefficient generation; token setup and model load excluded",
        "environment": _environment(),
    }
    with atomic_write(str(args.out) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return 0


def _cmd_embed(args) -> int:
    if not args.vertical and args.v is not None:
        raise ValidationError("--v applies to the vertical schedule; add --vertical")
    model = _load_model_arg(args)
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"input is not UTF-8 text: {exc}") from exc
    if args.format_query is not None:
        text = format_query(args.format_query, text)
    ids = tokenize_words(text, model.spec.vocab_size)
    if not ids:
        raise ValidationError("input contains no tokens")
    # None stands for the model's Q and, under --vertical, its V
    out = embed_sequence(model, ids,
                         strategy="vertical" if args.vertical else "horizontal",
                         chunk_size=args.q, block_len=args.v)
    line = ",".join(f"{value:.17g}" for value in out.vector)
    if args.out:
        with atomic_write(args.out, "w", encoding="utf-8") as fh:
            fh.write(line + "\n")
    else:
        print(line)
    return 0


def _cmd_report(args) -> int:
    records = read_records(args.csv)
    rows = summarize_records(records)
    lines = [
        "# aggregate of one sweep CSV; wall times include per-layer coefficient "
        "generation inside the forward pass",
        ",".join(SUMMARY_FIELDS),
    ]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in (row[k] for k in SUMMARY_FIELDS)))
    text = "\n".join(lines) + "\n"
    if args.out:
        with atomic_write(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"equivalence": _cmd_equivalence, "sweep": _cmd_sweep,
                "embed": _cmd_embed, "report": _cmd_report}
    try:
        folder = os.path.dirname(args.out or "")
        if folder and not os.path.isdir(folder):
            raise ValidationError(f"--out {args.out}: directory {folder} does not exist")
        if os.path.isdir(args.out or ""):
            raise ValidationError(f"--out {args.out} is a directory")
        return handlers[args.command](args)
    except (SsdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
