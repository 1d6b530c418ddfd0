"""Outside-in spans around ssdkit's public functions.

A Tracer wraps each function named in TRACED and rebinds every module
attribute that refers to it, re-exports included (``ssdkit.stack`` looks up
``chunked_forward`` in its own namespace, ``ssdkit.embedding`` looks up
``vertical_infer`` in its own), so calls made inside the package are
recorded too.  Uninstalling restores the original bindings.  Spans are kept
in memory and analysed or written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import defaultdict
from dataclasses import dataclass

CHECK = "check"  # request id of spans recorded while checking outputs

# Defining module -> functions wrapped; a span is named "<module>.<function>".
TRACED = {
    "core": ("recurrent_scan",),
    "chunked": ("chunked_forward", "dense_dual", "intra_chunk", "propagate_states",
                "inter_chunk_correction"),
    "stack": ("layer_forward", "horizontal_infer", "vertical_infer",
              "export_state_snapshot", "import_state_snapshot"),
    "embedding": ("format_query", "tokenize_words", "embed_sequence",
                  "cosine_similarity", "info_nce_loss"),
}
INFER = ("stack.horizontal_infer", "stack.vertical_infer")


def _infer_counts(result):
    f = result.flops
    return {"intra": f.intra, "propagate": f.propagate, "inter": f.inter,
            "ledger_peak": result.ledger.peak_elements}


def _scan_counts(result):
    y, _ = result
    return {"tokens": y.shape[0] * y.shape[1]}


# Counts read off a call's result at the span boundary.
COUNTS = {"stack.horizontal_infer": _infer_counts, "stack.vertical_infer": _infer_counts,
          "core.recurrent_scan": _scan_counts}


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    parent: int | None
    request: object
    start: int = 0  # perf_counter_ns
    end: int = 0
    counts: dict | None = None


class Tracer:
    """Records a Span per call of a TRACED function while installed.

    ``modules`` maps the short module names of TRACED to the imported
    modules, plus any other module whose attributes should be rebound.
    Set ``request`` before each call to tag the spans it causes.
    """

    def __init__(self, modules: dict):
        self.spans: list[Span] = []
        self.request = None
        self._open: list[int] = []
        self._ids = itertools.count()
        originals = {}
        for short, names in TRACED.items():
            for fn_name in names:
                fn = getattr(modules[short], fn_name)
                originals[id(fn)] = (fn, self._wrap(f"{short}.{fn_name}", fn))
        self._bindings = []
        for module in modules.values():
            for attr, value in vars(module).items():
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value, hit[1]))

    def _wrap(self, name, fn):
        spans, open_, ids = self.spans, self._open, self._ids
        clock = time.perf_counter_ns
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(next(ids), name, open_[-1] if open_ else None, self.request)
            open_.append(span.sid)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
                spans.append(span)
            if counts is not None:
                span.counts = counts(result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> dict[int, int]:
    """Self time of each span in ns, keyed by span id.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (overlapping children are counted once).
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0
        run_lo = run_hi = None
        for lo, hi in sorted(children[s.sid]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


def outermost(spans, names) -> list[Span]:
    """Spans named in ``names`` with no ancestor named in ``names``."""
    by_id = {s.sid: s for s in spans}
    found = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            found.append(s)
    return found


def chrome_trace(spans, limit: int) -> dict:
    """Chrome trace-event JSON ("X" events) for the first ``limit`` spans."""
    ordered = sorted(spans, key=lambda s: s.start)
    t0 = ordered[0].start if ordered else 0
    events = [{"name": s.name, "cat": s.name.split(".")[0], "ph": "X",
               "ts": (s.start - t0) / 1e3, "dur": (s.end - s.start) / 1e3,
               "pid": 1, "tid": 1,
               "args": {"id": s.sid, "parent": s.parent, "request": s.request}}
              for s in ordered[:limit]]
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"spans_recorded": len(spans), "spans_written": len(events)}}
