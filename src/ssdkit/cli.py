"""Command-line harness: equivalence checks, timing sweeps, text embedding.

Exit codes: 0 on success, 1 when an equivalence check fails, 2 for usage or
input errors.  The environment variable SSD_CHUNK_DENSE_LIMIT overrides the
dense kernel's materialization limit for all subcommands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import (EquivalenceConfig, SweepConfig, read_records, run_equivalence,
                    run_sweep, summarize_records, write_records, STRATEGIES)
from .chunked import FAULT_MODES
from .embedding import embed_sequence, format_query, tokenize_words
from .errors import SsdError, ValidationError
from .model_io import generate_model, load_model, load_model_spec, spec_to_config
from .stack import ModelSpec, atomic_write


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


def _load_model_arg(args) -> "StackedModel":
    if args.model:
        if str(args.model).endswith(".json"):
            return generate_model(load_model_spec(args.model))
        return load_model(args.model)
    return generate_model(ModelSpec(seed=args.seed))


def _dense_limit_env() -> int | None:
    raw = os.environ.get("SSD_CHUNK_DENSE_LIMIT")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise SsdError(f"SSD_CHUNK_DENSE_LIMIT must be an integer, got {raw!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssdkit",
        description="Equivalence checks, sweeps, and embeddings for chunked "
                    "state-space inference.")
    sub = parser.add_subparsers(dest="command", required=True)

    eq = sub.add_parser("equivalence", help="cross-check all evaluation routes")
    eq.add_argument("--model", help="model file (.ssdm) or model spec (.json)")
    eq.add_argument("--seed", type=int, default=42)
    eq.add_argument("--tolerance", type=float, default=1e-9)
    eq.add_argument("--grid-t", type=_int_list, default=None, help="sequence lengths")
    eq.add_argument("--grid-q", type=_int_list, default=None, help="chunk sizes")
    eq.add_argument("--grid-v", type=_int_list, default=None, help="vertical block lengths")
    eq.add_argument("--inject-fault", choices=FAULT_MODES, default=None,
                    help="disable one kernel ingredient; the suite must then fail "
                         "on every multi-chunk instance")
    eq.add_argument("--out", help="write the full report as JSON")

    sw = sub.add_parser("sweep", help="time forward passes over a grid")
    sw.add_argument("--model", help="model file (.ssdm) or model spec (.json)")
    sw.add_argument("--seed", type=int, default=42)
    sw.add_argument("--grid-t", type=_int_list, default=None)
    sw.add_argument("--grid-q", type=_int_list, default=None)
    sw.add_argument("--grid-v", type=_int_list, default=None,
                    help="absolute vertical block lengths (default: Q, 2Q, 4Q per Q)")
    sw.add_argument("--grid-batch", type=_int_list, default=None)
    sw.add_argument("--strategy", default=None,
                    help=f"comma-separated subset of {','.join(STRATEGIES)}")
    sw.add_argument("--reps", type=int, default=3)
    sw.add_argument("--warmup", type=int, default=1)
    sw.add_argument("--out", required=True, help="output CSV path")

    em = sub.add_parser("embed", help="embed a text file")
    em.add_argument("input", help="text file to embed, or - for stdin")
    em.add_argument("--model", help="model file (.ssdm) or model spec (.json)")
    em.add_argument("--seed", type=int, default=42)
    em.add_argument("--vertical", action="store_true",
                    help="use the vertical (bounded-memory) schedule")
    em.add_argument("--q", type=int, default=None, help="chunk size override")
    em.add_argument("--v", type=int, default=None,
                    help="vertical block length override (with --vertical)")
    em.add_argument("--memory-cap", action="store_true",
                    help="cap vertical memory: block length = chunk size (with --vertical)")
    em.add_argument("--format-query", metavar="PROMPT", default=None,
                    help="render the instruction template around the input first")
    em.add_argument("--out", help="write the vector to a file instead of stdout")

    rp = sub.add_parser("report", help="aggregate a sweep CSV")
    rp.add_argument("csv", help="sweep CSV produced by the sweep subcommand")
    rp.add_argument("--out", help="write the aggregate CSV here instead of stdout")
    return parser


def _cmd_equivalence(args) -> int:
    overrides = {"seed": args.seed, "tolerance": args.tolerance}
    if args.grid_t is not None:
        overrides["t_grid"] = args.grid_t
    if args.grid_q is not None:
        overrides["q_grid"] = args.grid_q
    if args.grid_v is not None:
        overrides["v_grid"] = args.grid_v
    if args.inject_fault is not None:
        overrides["fault"] = args.inject_fault
    env_limit = _dense_limit_env()
    if env_limit is not None:
        overrides["dense_limit"] = env_limit
    report = run_equivalence(EquivalenceConfig(**overrides))
    for check in report.checks:
        print(check.line())
    status = "PASS" if report.passed else "FAIL"
    print(f"[{status}] {len(report.checks)} checks, "
          f"max_rel_err={report.max_rel_err:.3e}, fault={report.config.fault}")
    if args.out:
        with atomic_write(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    model = _load_model_arg(args)
    overrides = {"seed": args.seed, "reps": args.reps, "warmup": args.warmup}
    if args.grid_t is not None:
        overrides["t_grid"] = args.grid_t
    if args.grid_q is not None:
        overrides["q_grid"] = args.grid_q
    if args.grid_v is not None:
        overrides["v_grid"] = args.grid_v
    if args.grid_batch is not None:
        overrides["batch_grid"] = args.grid_batch
    if args.strategy is not None:
        overrides["strategies"] = tuple(s.strip() for s in args.strategy.split(",") if s.strip())
    env_limit = _dense_limit_env()
    if env_limit is not None:
        overrides["dense_limit"] = env_limit
    config = SweepConfig(**overrides)
    records = run_sweep(model, config, log=lambda msg: print(msg, file=sys.stderr))
    write_records(args.out, records)
    meta = {
        "model_spec": spec_to_config(model.spec),
        "reps": config.reps,
        "warmup": config.warmup,
        "timing_note": "wall_time_s spans one forward pass, including per-layer "
                       "coefficient generation; token setup and model load excluded",
    }
    with atomic_write(str(args.out) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return 0


def _cmd_embed(args) -> int:
    if not args.vertical and (args.v is not None or args.memory_cap):
        raise ValidationError("--v and --memory-cap apply to the vertical schedule; "
                              "add --vertical")
    if args.v is not None and args.memory_cap:
        raise ValidationError("--memory-cap and --v both set the block length; give one")
    model = _load_model_arg(args)
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    if args.format_query is not None:
        text = format_query(args.format_query, text)
    ids = tokenize_words(text, model.spec.vocab_size)
    if not ids:
        print("error: input contains no tokens", file=sys.stderr)
        return 2
    chunk = args.q if args.q is not None else model.spec.Q
    block = args.v if args.v is not None else (chunk if args.memory_cap else model.spec.V)
    out = embed_sequence(model, ids,
                         strategy="vertical" if args.vertical else "horizontal",
                         chunk_size=chunk, block_len=block)
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
        "strategy,T,batch,Q,V,reps,wall_mean_s,wall_min_s,wall_max_s,peak_elems,flops_total",
    ]
    for row in rows:
        lines.append(",".join(str(row[k]) if not isinstance(row[k], float) else repr(row[k])
                              for k in ("strategy", "T", "batch", "Q", "V", "reps",
                                        "wall_mean_s", "wall_min_s", "wall_max_s",
                                        "peak_elems", "flops_total")))
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
        return handlers[args.command](args)
    except (SsdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
