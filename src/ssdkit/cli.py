"""Command-line harness: equivalence checks, timing sweeps, text embedding.

Exit codes: 0 on success, 1 when an equivalence check fails, 2 for usage or
input errors.  The environment variable SSD_CHUNK_DENSE_LIMIT sets the dense
kernel's materialization limit: for sweep, in the spec of the model it times
(and so in its .meta.json); for equivalence, in its EquivalenceConfig.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from .bench import (EquivalenceConfig, SweepConfig, read_records, run_equivalence,
                    run_sweep, summarize_records, write_records, STRATEGIES)
from .chunked import FAULT_MODES
from .embedding import embed_sequence, format_query, tokenize_words
from .errors import SsdError, ValidationError
from .model_io import generate_model, load_model, load_model_spec, spec_to_config
from .stack import ModelSpec, StackedModel, atomic_write


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in _name_list(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


def _given(args, cls, **extra):
    """cls built from the flags given for its fields, plus extra."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)
                  if hasattr(args, f.name)}, **extra)


def _load_model_arg(args) -> StackedModel:
    if args.model:
        if str(args.model).endswith(".json"):
            return generate_model(load_model_spec(args.model))
        return load_model(args.model)
    return generate_model(_given(args, ModelSpec))


def _dense_limit_env() -> dict:
    """{"dense_limit": n} from SSD_CHUNK_DENSE_LIMIT, or {} when it is unset."""
    raw = os.environ.get("SSD_CHUNK_DENSE_LIMIT")
    if raw is None:
        return {}
    try:
        return {"dense_limit": int(raw)}
    except ValueError:
        raise SsdError(f"SSD_CHUNK_DENSE_LIMIT must be an integer, got {raw!r}")


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
                    help=f"comma-separated subset of {','.join(STRATEGIES)}")
    sw.add_argument("--reps", type=int)
    sw.add_argument("--warmup", type=int)
    sw.add_argument("--out", required=True, help="output CSV path")

    em = sub.add_parser("embed", help="embed a text file")
    em.add_argument("input", help="text file to embed, or - for stdin")
    em.add_argument("--model", help="model file (.ssdm) or model spec (.json)")
    em.add_argument("--seed", type=int, default=argparse.SUPPRESS)
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
    config = _given(args, EquivalenceConfig, **_dense_limit_env())
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


def _cmd_sweep(args) -> int:
    model = _load_model_arg(args)
    # the limit goes into the timed model's spec, so the sidecar records it
    limit = _dense_limit_env()
    if limit:
        model = StackedModel(replace(model.spec, **limit), model.embedding, model.layers)
    config = _given(args, SweepConfig)
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
