"""Benchmark for ssdkit: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stream-long --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the current directory; the run
fails, printing no result, if it is not there.  Each run:

1. sets up SETUP_REPS times (fresh import of ssdkit, generate_model, input
   generation), timing the Reference kernel between set-ups, and reports
   the median as setup_s (see NOMINAL_REF_S);
2. computes reference outputs for the output checks;
3. runs one untimed warm-up round, then rounds of calls for ``--seconds``,
   timing the Reference kernel before the first round and after each one.
   With ``--trace 1`` rounds alternate untraced and traced: the traced ones
   give the per-layer metrics, the pair gives the tracing overhead, and the
   spans are written as Chrome trace-event JSON;
4. runs the whole-run output checks;
5. runs round 0 again under tracemalloc for peak_traced_mb.

Timed end-to-end metrics are in "ref" units: each round's call times are
divided by the mean of the two Reference timings around it, so host-speed
drift between runs cancels.  Raw tok/s and ms are printed and recorded
alongside.  Every call is checked after it returns, outside its timing.  The last line
of standard output is one JSON object with keys correct, attempted, failed
and metrics (end-to-end metrics with --trace 0, per-layer ones with
--trace 1); a fuller record, with the environment, goes to
``.perfbench-out/``.  The exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# Neither imports NumPy; workloads does, so it is imported after the BLAS
# thread count is set.
import stats
import tracing

SETUP_REPS = 11
TRACE_SPAN_LIMIT = 50_000
OUT_DIR = ".perfbench-out"
# One BLAS thread: the client is single-threaded, the arrays are too small
# for BLAS threads to help, and one thread keeps runs steadier on a shared
# host.  Must be set before NumPy is first imported.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"tokens_per_ref": "tok/ref", "latency_p50_ref": "ref",
                    "latency_p90_ref": "ref", "peak_traced_mb": "MB", "setup_s": "s",
                    "ok_ops_ratio": "ratio"}


# setup_s is set-up time in ref units expressed in seconds at this nominal
# reference time (about the Reference kernel's time on the 2-CPU host the
# benchmark was tuned on), so it keeps its unit but not the host's drift.
NOMINAL_REF_S = 0.010


class Reference:
    """A fixed NumPy and interpreter kernel that does not use ssdkit.

    The shared host this benchmark runs on changes speed by tens of percent
    over tens of seconds, so raw times of the same code drift between runs.
    Timing this kernel between rounds measures the host's current speed;
    a call's time divided by it (unit "ref") cancels most of the drift.  Its
    mix, decay-block row recursions and einsum contractions on batch-8 and
    batch-1 arrays, resembles the package's own per-chunk work.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        big = (rng.random((8, 16, 2)), rng.random((8, 16, 2, 4)))
        small = (rng.random((1, 16, 2)), rng.random((1, 16, 2, 4)))
        self._operands = (big, small, small, small)

    def seconds(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for _ in range(30):
            for a, b in self._operands:
                decay = np.zeros((a.shape[0], 2, 16, 16))
                for j in range(1, 16):
                    decay[..., j, :j] = a[:, j, :, None] * decay[..., j - 1, :j]
                float((np.einsum("bihn,bjhn->bhij", b, b) * decay).sum())
        return time.perf_counter() - t0


class Recorder:
    """Runs calls, times them, checks their outputs and counts failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def execute(self, call):
        """Run one call; return (latency_ns, output), output None on error."""
        t0 = time.perf_counter_ns()
        try:
            out = call.run()
        except Exception:  # counted as a failed operation; the run goes on
            traceback.print_exc(file=sys.stderr)
            return time.perf_counter_ns() - t0, None
        return time.perf_counter_ns() - t0, out

    def verify(self, call, out) -> None:
        try:
            ok = out is not None and bool(call.verify(out))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.record(ok)


def load_api(src: Path):
    """Import ssdkit afresh from ``src`` and return its modules by short name."""
    for name in [m for m in sys.modules if m == "ssdkit" or m.startswith("ssdkit.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ssdkit")
    if Path(pkg.__file__).resolve().parent != (src / "ssdkit").resolve():
        raise ImportError(f"ssdkit was imported from {pkg.__file__}, not from {src}")
    mods = {name[len("ssdkit."):]: mod for name, mod in sys.modules.items()
            if name.startswith("ssdkit.")}
    mods["ssdkit"] = pkg
    return mods


def setup(workload_cls, seed: int, src: Path, reference: Reference):
    """SETUP_REPS fresh set-ups, each bracketed by Reference timings.

    Returns raw set-up seconds, the same in ref units, generate_model
    seconds, and the last set-up's modules, model and inputs.
    """
    from workloads import SPEC

    totals, totals_ref, gen = [], [], []
    before = reference.seconds()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        api = load_api(src)
        t1 = time.perf_counter()
        model = api["model_io"].generate_model(api["stack"].ModelSpec(**SPEC))
        t2 = time.perf_counter()
        inputs = workload_cls.make_inputs(seed)
        totals.append(time.perf_counter() - t0)
        gen.append(t2 - t1)
        after = reference.seconds()
        totals_ref.append(totals[-1] / ((before + after) / 2))
        before = after
    return totals, totals_ref, gen, api, model, inputs


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    import tracemalloc

    from workloads import WORKLOADS, cross_layer_check

    cls = WORKLOADS[workload]
    reference = Reference()
    setup_totals, setup_ref, gen_times, mods, model, inputs = setup(
        cls, seed, root / "src", reference)
    api = SimpleNamespace(**mods)
    wl = cls(api, model, inputs)
    rec = Recorder()
    tracer = tracing.Tracer(mods) if trace else None

    def checked(fn):
        """Run fn as output-check work: traced under request id CHECK."""
        if tracer is None:
            return fn()
        tracer.request = tracing.CHECK
        with tracer:
            return fn()

    checked(wl.prepare)
    for call in wl.round(0):  # warm-up
        rec.verify(call, rec.execute(call)[1])

    ref_s = [reference.seconds()]
    latencies, latencies_ref = [], []  # per untraced call: s, and multiples of ref
    rates, rates_ref = [], {False: [], True: []}  # per round: untraced tok/s; traced? -> tok/ref
    traced_tokens = traced_ns = 0
    request = 0
    deadline = time.perf_counter() + seconds
    r = 1
    while time.perf_counter() < deadline or r <= 1 + trace:  # one round of each kind at least
        traced_round = trace and r % 2 == 0
        if traced_round:
            tracer.install()
        round_tokens, round_lat = 0, []
        try:
            for call in wl.round(r):
                if traced_round:
                    tracer.request = request
                lat, out = rec.execute(call)
                rec.verify(call, out)  # outside the call's timing
                request += 1
                round_tokens += call.tokens
                round_lat.append(lat / 1e9)
        finally:
            if traced_round:
                tracer.uninstall()
        ref_s.append(reference.seconds())
        ref = (ref_s[-2] + ref_s[-1]) / 2  # the reference runs bracketing this round
        busy = sum(round_lat)
        rates_ref[traced_round].append(round_tokens * ref / busy)
        if traced_round:
            traced_tokens += round_tokens
            traced_ns += busy * 1e9
        else:
            rates.append(round_tokens / busy)
            latencies += round_lat
            latencies_ref += [lat / ref for lat in round_lat]
        r += 1

    for ok in checked(wl.checks) + checked(lambda: cross_layer_check(api, model, seed)):
        rec.record(ok)

    # Peak per call over one round; each output is checked and dropped before
    # the next call, so neither the check nor held outputs count.
    calls = wl.round(0)
    peak_bytes = 0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for call in calls:
            tracemalloc.reset_peak()
            out = rec.execute(call)[1]
            peak_bytes = max(peak_bytes, tracemalloc.get_traced_memory()[1] - base)
            rec.verify(call, out)
            del out
    finally:
        tracemalloc.stop()

    summary_ref = stats.latency_summary(latencies_ref)
    summary_ms = stats.latency_summary([x * 1e3 for x in latencies])
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": r - 1,
        "latency_ref": summary_ref,
        "raw": {"tokens_per_s": statistics.median(rates),
                "latency_p50_ms": summary_ms["p50"], "latency_p90_ms": summary_ms["p90"],
                "setup_s": statistics.median(setup_totals),
                "ref_ms_median": statistics.median(ref_s) * 1e3},
        "failed_ops_ratio": rec.failed / rec.attempted,
    }
    metrics = {
        "tokens_per_ref": statistics.median(rates_ref[False]),
        "latency_p50_ref": summary_ref["p50"],
        "latency_p90_ref": summary_ref["p90"],
        "peak_traced_mb": peak_bytes / 1e6,
        "setup_s": statistics.median(setup_ref) * NOMINAL_REF_S,
        "ok_ops_ratio": 1.0 - rec.failed / rec.attempted,
    }
    result["end_to_end"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                            for k, v in metrics.items()}
    if trace:
        layers = layer_metrics(tracer.spans, traced_tokens, traced_ns, peak_bytes)
        layers["model_io.generate_model_ms"] = (statistics.median(gen_times) * 1e3, "ms")
        untraced, traced = statistics.median(rates_ref[False]), statistics.median(rates_ref[True])
        layers["trace.tokens_per_ref_untraced"] = (untraced, "tok/ref")
        layers["trace.tokens_per_ref_traced"] = (traced, "tok/ref")
        layers["trace.overhead_pct"] = (100 * (untraced - traced) / untraced, "%")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["chrome_trace"] = tracing.chrome_trace(tracer.spans, TRACE_SPAN_LIMIT)
    result["correct"] = rec.failed == 0
    result["attempted"], result["failed"] = rec.attempted, rec.failed
    return result


SELF_MS = ("chunked.intra_chunk", "chunked.propagate_states", "chunked.inter_chunk_correction",
           "chunked.chunked_forward", "stack.layer_forward", "stack.vertical_infer",
           "stack.horizontal_infer", "stack.export_state_snapshot",
           "stack.import_state_snapshot", "embedding.embed_sequence")
SELF_US = ("embedding.format_query", "embedding.tokenize_words",
           "embedding.cosine_similarity", "embedding.info_nce_loss")
PER_KTOK = ("chunked.intra_chunk", "chunked.inter_chunk_correction", "stack.layer_forward")
STAGES = {"intra": "chunked.intra_chunk", "propagate": "chunked.propagate_states",
          "inter": "chunked.inter_chunk_correction"}


def layer_metrics(spans, traced_tokens: int, traced_ns: int, peak_bytes: int) -> dict:
    """Per-layer metrics from the traced run: name -> (value, unit).

    Times are mean self time per call over the traced rounds; a function the
    workload's rounds never call is timed from its output-check calls
    instead.  Counts per token and per flop use the traced rounds only.
    """
    selfs = tracing.self_times(spans)
    work = [s for s in spans if s.request != tracing.CHECK]
    check = [s for s in spans if s.request == tracing.CHECK]

    def self_ns(name, pool):
        return [selfs[s.sid] for s in pool if s.name == name]

    def mean_self_ns(name):
        values = self_ns(name, work) or self_ns(name, check)
        return sum(values) / len(values)

    out = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (mean_self_ns(name) / 1e6, "ms/call")
    for name in SELF_US:
        out[f"{name}.us"] = (mean_self_ns(name) / 1e3, "us/call")
    for name in PER_KTOK:
        out[f"{name}.calls_per_ktok"] = (
            1e3 * sum(1 for s in work if s.name == name) / traced_tokens, "count/ktok")

    infers = [s.counts for s in tracing.outermost(work, tracing.INFER)]
    for stage, name in STAGES.items():
        flops = sum(c[stage] for c in infers)
        out[f"chunked.ns_per_flop.{stage}"] = (sum(self_ns(name, work)) / flops, "ns/flop")
        out[f"instrumentation.flops_per_token.{stage}"] = (flops / traced_tokens, "flop/tok")
    ledger_peak = max(c["ledger_peak"] for c in infers)
    out["instrumentation.ledger_peak_elems"] = (ledger_peak, "count")
    out["instrumentation.traced_over_ledger"] = (peak_bytes / (8 * ledger_peak), "ratio")

    scans = [s for s in spans if s.name == "core.recurrent_scan"]
    out["core.recurrent_scan.tokens_per_s"] = (
        sum(s.counts["tokens"] for s in scans) / (sum(s.end - s.start for s in scans) / 1e9),
        "tok/s")
    chunked_ns = sum(selfs[s.sid] for s in work if s.name.startswith("chunked."))
    out["trace.chunked_share"] = (chunked_ns / traced_ns, "ratio")
    return dict(sorted(out.items()))


def environment(root: Path) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_threads_requested": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(root),
        "repo.src_lines": sum(len(p.read_text().splitlines())
                              for p in sorted((root / "src").rglob("*.py"))),
    }


def blas_threads():
    """Thread count reported by NumPy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_revision(root: Path) -> str:
    """HEAD's commit id read from ``.git`` in ``root``, or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "ssdkit" / "__init__.py").is_file():
        print(f"error: no ssdkit package under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    result["env"] = environment(root)

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    chrome = result.pop("chrome_trace", None)
    if chrome is not None:
        path = out_dir / f"{stem}.trace.json"
        path.write_text(json.dumps(chrome))
        result["chrome_trace_file"] = str(path.relative_to(root))
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))

    lat = result["latency_ref"]
    print(f"workload {args.workload}  seed {args.seed}  rounds {result['rounds']}  "
          f"calls {lat['samples']}  beyond p90 {lat['beyond_p90']}"
          + ("" if lat["p90_supported"] else "  (p90 has fewer than 10 samples beyond it)"))
    for name, m in result["end_to_end"].items():
        print(f"  {name:<22} {m['value']:.6g} {m['unit']}")
    raw = result["raw"]
    print(f"  raw: {raw['tokens_per_s']:.6g} tok/s, p50 {raw['latency_p50_ms']:.6g} ms, "
          f"p90 {raw['latency_p90_ms']:.6g} ms, setup {raw['setup_s']:.4g} s, "
          f"1 ref = {raw['ref_ms_median']:.4g} ms (median)")
    print(f"  {'failed_ops_ratio':<22} {result['failed_ops_ratio']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, m in result.get("per_layer", {}).items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"  env {json.dumps(result['env'])}")
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.exit(main())
