"""Equivalence suite and timing sweeps over the inference strategies.

The equivalence suite checks, on seeded instances, that every evaluation
route agrees with the sequential recurrence: the dense single-operator form,
the block-decomposed form at several chunk sizes (outputs and final states),
each decomposition stage (the stage functions called one by one on the
chunk-major layout, with a state carried in) against its own independent
oracle, and the model-level schedules (the chunked kernel at Q and at Q = T,
and the vertical scheduler, against a recurrent-kernel reference).  A fault
injected into one stage must surface here on every instance whose
decomposition actually exercises that stage; single-chunk instances are
expected to stay green.

Sweeps time full forward passes (coefficient generation included) over a
grid of sequence lengths, batch sizes, chunk sizes, and vertical block
lengths, and emit one CSV row per repetition with the ledger peak and
per-stage flop counts.  ``SweepConfig.bench`` on ``BENCH_SPEC`` is the grid
of the committed BENCH_<n>.json files (``ssdkit sweep --preset bench``).
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .chunked import (DEFAULT_DENSE_LIMIT, _check_fault, _chunk_size, chunk_major,
                      chunked_forward, dense_dual, inter_chunk_correction, intra_chunk,
                      propagate_states)
from .core import _as_int, _positive_real, random_coefficients, recurrent_scan
from .errors import ValidationError
from .model_io import atomic_write, generate_model
from .stack import ModelSpec, StackedModel, horizontal_infer, infer, vertical_infer

__all__ = [
    "STRATEGIES",
    "CSV_HEADER",
    "EquivalenceConfig",
    "CheckResult",
    "EquivalenceReport",
    "run_equivalence",
    "SweepConfig",
    "BenchRecord",
    "run_sweep",
    "write_records",
    "read_records",
    "SUMMARY_FIELDS",
    "summarize_records",
    "BENCH_SPEC",
]

_ROUTES = {"recurrent": ("recurrent", False, False),  # strategy: (kernel, uses Q, uses V)
           "dense": ("chunked", False, False),  # no Q axis: one chunk per block
           "chunked-horizontal": ("chunked", True, False),
           "vertical": ("chunked", True, True)}
STRATEGIES = tuple(_ROUTES)


def _check_ints(config, minimums: dict, grids) -> None:
    """Store config's integer fields (name -> minimum) as ints, and each named
    grid (None allowed) as a non-empty tuple of distinct positive ints; refuse
    the rest.  A repeated entry would run its cells twice under one key."""
    for name, minimum in minimums.items():
        object.__setattr__(config, name, _as_int(getattr(config, name), name, minimum))
    for name in grids:
        grid = getattr(config, name)
        if grid is not None:
            if not isinstance(grid, (list, tuple)) or not grid:
                raise ValidationError(f"{name} must be a non-empty list or tuple of "
                                      f"positive integers, got {grid!r}")
            grid = tuple(_as_int(v, f"{name} entry", 1) for v in grid)
            if len(set(grid)) < len(grid):
                raise ValidationError(f"{name} must not repeat an entry, got {grid}")
            object.__setattr__(config, name, grid)


def relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    """max |got - ref| normalized by max |ref| (floor guards all-zero refs)."""
    denom = max(float(np.max(np.abs(ref))), 1e-30)
    return float(np.max(np.abs(np.asarray(got) - np.asarray(ref))) / denom)


# ---------------------------------------------------------------------------
# Equivalence suite
# ---------------------------------------------------------------------------

# the suite's fixed shapes: batch, heads and state dimension of each kernel
# instance, then the stacked model's channel count and chunk size
EQ_BATCH, EQ_HEADS, EQ_STATE_DIM, EQ_D, EQ_MODEL_Q = 2, 2, 4, 16, 8


@dataclass(frozen=True)
class EquivalenceConfig:
    seed: int = 42
    tolerance: float = 1e-9
    t_grid: tuple[int, ...] = (4, 16, 33, 64)
    q_grid: tuple[int, ...] = (2, 4, 8)
    v_grid: tuple[int, ...] = (16, 32)
    layers: int = 3
    fault: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "tolerance", _positive_real(self.tolerance, "tolerance"))
        _check_fault(self.fault)
        _check_ints(self, {"seed": 0, "layers": 1},
                    ("t_grid", "q_grid", "v_grid"))
        for q in self.q_grid:
            _chunk_size(q, "q_grid entry")
        if any(v % EQ_MODEL_Q for v in self.v_grid):
            raise ValidationError(f"v_grid entries must be multiples of the suite model's "
                                  f"chunk size {EQ_MODEL_Q}, got {self.v_grid}")


@dataclass
class CheckResult:
    instance: str
    name: str
    multi_chunk: bool
    max_rel_err: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.max_rel_err <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        multi = "multi" if self.multi_chunk else "single"
        return (f"[{status}] {self.instance} {self.name} ({multi}-chunk) "
                f"max_rel_err={self.max_rel_err:.3e} tol={self.tolerance:.1e}")


@dataclass
class EquivalenceReport:
    config: EquivalenceConfig
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_rel_err(self) -> float:
        return max((c.max_rel_err for c in self.checks), default=0.0)

    def failed_instances(self) -> list[str]:
        return sorted({c.instance for c in self.checks if not c.passed})

    def multi_chunk_instances(self) -> list[str]:
        return sorted({c.instance for c in self.checks if c.multi_chunk})

    def to_dict(self) -> dict:
        return {
            "seed": self.config.seed,
            "tolerance": self.config.tolerance,
            "fault": self.config.fault,
            "passed": self.passed,
            "max_rel_err": self.max_rel_err,
            "checks": [vars(c) for c in self.checks],
        }


def _pair_err(got_pair, ref_pair) -> float:
    return max(relative_error(got_pair[0], ref_pair[0]),
               relative_error(got_pair[1], ref_pair[1]))


def _stage_checks(report, instance, coeffs, x, h0, q, config):
    """Check each decomposition stage against an independent oracle.

    The stage functions run directly on chunk_major's layout, with the state
    h0 carried in; stage 3 corrects every chunk, as in chunked_forward.
    """
    add = report.checks.append
    tol, fault = config.tolerance, config.fault
    a, Bm, Cm, xs = chunk_major(coeffs, x, q)
    y_intra, b_intra = intra_chunk(a, Bm, Cm, xs, fault=fault)
    entry = np.cumprod(a, axis=-1)
    states = propagate_states(b_intra, entry[..., -1], h0, fault=fault)
    y_inter = inter_chunk_correction(entry, Cm, states[:, :-1], fault=fault)
    t = coeffs.length
    multi = t > q
    chunks = [(c, coeffs.slice_time(start, min(start + q, t)), x[:, start:start + q])
              for c, start in enumerate(range(0, t, q))]

    def at(out, c, part):  # chunk c of a chunk-major (b, k, h, Q) output, time-major
        return out[:, c, :, :part.length].swapaxes(1, 2)

    # Stage 1: each chunk against the dense operator with zero incoming state.
    err = 0.0
    for c, part, x_part in chunks:
        y_ref, h_ref = dense_dual(part, x_part)
        err = max(err, relative_error(at(y_intra, c, part), y_ref),
                  relative_error(b_intra[:, c], h_ref))
    add(CheckResult(instance, f"stage-intra-q{q}", multi, err, tol))

    # Stage 2: boundary states against the recurrence run chunk by chunk.
    err, h = relative_error(states[:, 0], h0), h0
    for c, part, x_part in chunks:
        _, h = recurrent_scan(part, x_part, h)
        err = max(err, relative_error(states[:, c + 1], h))
    add(CheckResult(instance, f"stage-boundary-q{q}", multi, err, tol))

    # Stage 3: each correction equals reading the carried state out through
    # the chunk with its own inputs silenced (superposition of the two parts).
    err = 0.0
    for c, part, x_part in chunks:
        y_ref, _ = recurrent_scan(part, np.zeros_like(x_part), states[:, c])
        err = max(err, relative_error(at(y_inter, c, part), y_ref))
    add(CheckResult(instance, f"stage-correction-q{q}", multi, err, tol))


def run_equivalence(config: EquivalenceConfig = EquivalenceConfig()) -> EquivalenceReport:
    """Run every oracle comparison in the suite; see the module docstring."""
    rng = np.random.default_rng(config.seed)
    report = EquivalenceReport(config)
    add = report.checks.append
    tol = config.tolerance

    for t in config.t_grid:
        instance = f"T={t}"
        coeffs = random_coefficients(rng, EQ_BATCH, t, EQ_HEADS, EQ_STATE_DIM)
        x = rng.standard_normal((EQ_BATCH, t, EQ_HEADS))
        h0 = rng.standard_normal((EQ_BATCH, EQ_HEADS, EQ_STATE_DIM))
        ref = recurrent_scan(coeffs, x, h0)

        if t <= DEFAULT_DENSE_LIMIT:
            err = _pair_err(dense_dual(coeffs, x, h0), ref)
            add(CheckResult(instance, "dense-vs-recurrent", False, err, tol))

        for q in config.q_grid:
            err = _pair_err(chunked_forward(coeffs, x, q, h0, fault=config.fault), ref)
            add(CheckResult(instance, f"chunked-q{q}", t > q, err, tol))

        # the stage checks run once, at the smallest Q that splits T
        stage_q = min((q for q in config.q_grid if q < t), default=None)
        if stage_q is not None:
            _stage_checks(report, instance, coeffs, x, h0, stage_q, config)

    # Model-level: schedules over a stacked model, recurrent kernel as oracle.
    spec = ModelSpec(seed=config.seed, L=config.layers, d=EQ_D, H=EQ_HEADS,
                     N=EQ_STATE_DIM, vocab_size=64, Q=EQ_MODEL_Q, V=2 * EQ_MODEL_Q)
    model = generate_model(spec)
    for t in config.t_grid:
        instance = f"T={t}"
        tokens = rng.integers(0, spec.vocab_size - 1, size=(1, t))
        ref = horizontal_infer(model, tokens, EQ_MODEL_Q, kernel="recurrent")
        multi = t > EQ_MODEL_Q

        got = horizontal_infer(model, tokens, EQ_MODEL_Q, fault=config.fault).hidden
        add(CheckResult(instance, "model-chunked", multi, relative_error(got, ref.hidden), tol))

        if t <= DEFAULT_DENSE_LIMIT:
            got = horizontal_infer(model, tokens, t).hidden
            add(CheckResult(instance, "model-dense", False, relative_error(got, ref.hidden), tol))

        for v in config.v_grid:
            blocks: list[tuple[int, np.ndarray]] = []
            vertical_infer(model, tokens, v, EQ_MODEL_Q, fault=config.fault,
                           sink=lambda start, h: blocks.append((start, h)))
            full = np.concatenate([h for _, h in sorted(blocks)], axis=1)
            err = relative_error(full, ref.hidden)
            add(CheckResult(instance, f"vertical-v{v}", multi, err, tol))
    return report


# ---------------------------------------------------------------------------
# Timing sweeps
# ---------------------------------------------------------------------------

# the model of the BENCH grid (SweepConfig.bench): the benchmark's (perfbench's SPEC)
BENCH_SPEC = ModelSpec(seed=42, L=4, d=16, H=2, N=4, vocab_size=64, Q=16, V=64)


@dataclass(frozen=True)
class SweepConfig:
    seed: int = 42
    t_grid: tuple[int, ...] = (64, 128, 256, 512, 1024)
    batch_grid: tuple[int, ...] = (1, 8)
    q_grid: tuple[int, ...] = (4, 8, 16, 32)
    v_grid: tuple[int, ...] | None = None  # None: V in {Q, 2Q, 4Q} per Q
    strategies: tuple[str, ...] = STRATEGIES
    reps: int = 3
    warmup: int = 1

    def __post_init__(self):
        _check_ints(self, {"seed": 0, "reps": 1, "warmup": 0},
                    ("t_grid", "batch_grid", "q_grid", "v_grid"))
        for q in self.q_grid:
            _chunk_size(q, "q_grid entry")
        strategies = self.strategies
        if (not isinstance(strategies, (list, tuple)) or not strategies
                or any(s not in STRATEGIES for s in strategies)
                or len(set(strategies)) < len(strategies)):
            raise ValidationError(f"strategies must be a non-empty list or tuple of "
                                  f"{STRATEGIES} without repeats, got {strategies!r}")
        object.__setattr__(self, "strategies", tuple(strategies))

    @classmethod
    def bench(cls, **overrides) -> "SweepConfig":
        """The grid of the committed BENCH_<n>.json files, run on BENCH_SPEC:
        chunked-horizontal, vertical at V in {16, 64, 256} and recurrent, over
        T in {1k, 8k, 64k} and batch in {1, 8} at Q = 16, five reps a cell;
        ``overrides`` replace any of these fields."""
        return cls(**{"t_grid": (1024, 8192, 65536), "batch_grid": (1, 8), "q_grid": (16,),
                      "v_grid": (16, 64, 256), "reps": 5,
                      "strategies": ("chunked-horizontal", "vertical", "recurrent"),
                      **overrides})


@dataclass(frozen=True)
class BenchRecord:
    strategy: str
    T: int
    batch: int
    Q: int  # 0 when the strategy does not chunk (recurrent, dense)
    V: int  # 0 for non-vertical strategies
    rep: int
    wall_time_s: float
    peak_elems: int
    flops_intra: int
    flops_prop: int
    flops_inter: int

    def sort_key(self):
        return (self.strategy, self.T, self.batch, self.Q, self.V, self.rep)


CSV_HEADER = ",".join(f.name for f in fields(BenchRecord))


def _cell_list(config: SweepConfig, log) -> list[tuple]:
    """Expand the grids into (strategy, T, batch, Q, V) cells, pruned; dense
    cells, a T x T mask per slice, by ``DEFAULT_DENSE_LIMIT``."""
    cells = []
    for strategy in config.strategies:
        kernel, uses_q, uses_v = _ROUTES[strategy]
        for t in config.t_grid:
            if kernel == "chunked" and not uses_q and t > DEFAULT_DENSE_LIMIT:
                log(f"skip {strategy} T={t}: exceeds dense limit {DEFAULT_DENSE_LIMIT}")
                continue
            for batch in config.batch_grid:
                for q in config.q_grid if uses_q else (0,):
                    for v in (config.v_grid or (q, 2 * q, 4 * q)) if uses_v else (0,):
                        if uses_v and v % q:
                            log(f"skip {strategy} T={t} Q={q} V={v}: V not a multiple of Q")
                            continue
                        cells.append((strategy, t, batch, q, v))
    return cells


def _cell_call(model: StackedModel, config: SweepConfig, cell: tuple):
    """The cell's one infer call, on its seeded tokens, as a function of no arguments."""
    strategy, t, batch, q, v = cell
    rng = np.random.default_rng([config.seed, t, batch])
    tokens = rng.integers(0, model.spec.vocab_size - 1, size=(batch, t))
    kernel = _ROUTES[strategy][0]
    chunk = q or (t if kernel == "chunked" else model.spec.Q)  # dense: chunk_size = T
    return lambda: infer(model, tokens, v or None, chunk, kernel=kernel)


def _time_cell(model: StackedModel, config: SweepConfig, cell: tuple) -> list[BenchRecord]:
    strategy, t, batch, q, v = cell
    call = _cell_call(model, config, cell)

    def run_once():
        start = time.perf_counter()
        result = call()
        return result, time.perf_counter() - start

    for _ in range(config.warmup):
        run_once()
    records = []
    for rep in range(config.reps):
        result, elapsed = run_once()
        records.append(BenchRecord(
            strategy, t, batch, q, v, rep, elapsed,
            result.ledger.peak_elements, result.flops.intra,
            result.flops.propagate, result.flops.inter))
    return records


def run_sweep(model: StackedModel, config: SweepConfig = SweepConfig(),
              *, log=None) -> list[BenchRecord]:
    """Time every grid cell, one after another; returns records sorted by the
    CSV column order."""
    log = log if log is not None else (lambda msg: None)
    records = [rec for cell in _cell_list(config, log)
               for rec in _time_cell(model, config, cell)]
    records.sort(key=BenchRecord.sort_key)
    return records


def write_records(path, records: list[BenchRecord]) -> None:
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(astuple(rec) for rec in records)  # csv writes floats by repr()


def read_records(path) -> list[BenchRecord]:
    header = CSV_HEADER.split(",")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"{path} is not a readable CSV: {exc}") from exc
    if not rows or rows[0] != header:
        raise ValidationError(f"unexpected CSV header in {path}")
    records = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValidationError(f"malformed CSV row: {row}")
        try:
            counts = [int(cell) for cell in row[1:6] + row[7:]]  # all but strategy, wall_time_s
            wall = float(row[6])
        except ValueError as exc:
            raise ValidationError(f"malformed CSV row {row}: {exc}") from exc
        if row[0] not in STRATEGIES:
            raise ValidationError(f"strategy must be one of {STRATEGIES} in CSV row {row}")
        if min(counts[:2]) < 1 or min(counts) < 0:  # T and batch, then the rest
            raise ValidationError(f"T and batch must be >= 1 and every other count >= 0 "
                                  f"in CSV row {row}")
        if not 0.0 <= wall < math.inf:  # false for NaN too
            raise ValidationError(f"wall_time_s must be finite and >= 0 in CSV row {row}")
        # the grid _cell_list writes: Q >= 1 exactly for a route that uses Q,
        # V >= 1, a multiple of Q, exactly for one that uses V
        q, v = counts[2], counts[3]
        _, uses_q, uses_v = _ROUTES[row[0]]
        if (q >= 1) != uses_q or (v >= 1) != uses_v or (uses_v and v % q):
            raise ValidationError(f"Q={q} and V={v} contradict strategy {row[0]} "
                                  f"in CSV row {row}")
        records.append(BenchRecord(row[0], *counts[:5], wall, *counts[5:]))
    return records


# the columns of one summarize_records row, in report order
SUMMARY_FIELDS = ("strategy", "T", "batch", "Q", "V", "reps", "wall_mean_s", "wall_min_s",
                  "wall_max_s", "peak_elems", "flops_total")


def summarize_records(records: list[BenchRecord]) -> list[dict]:
    """Aggregate repetitions per cell: wall-time mean/min/max, exact counts;
    each row's keys are SUMMARY_FIELDS."""
    cells: dict[tuple, list[BenchRecord]] = {}
    for rec in records:
        cells.setdefault((rec.strategy, rec.T, rec.batch, rec.Q, rec.V), []).append(rec)
    rows = []
    for key in sorted(cells):
        group = cells[key]
        walls = [r.wall_time_s for r in group]
        rows.append(dict(zip(SUMMARY_FIELDS, (
            *key, len(group), sum(walls) / len(walls), min(walls), max(walls),
            max(r.peak_elems for r in group),
            max(r.flops_intra + r.flops_prop + r.flops_inter for r in group)))))
    return rows

