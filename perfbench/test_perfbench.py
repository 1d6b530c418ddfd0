"""Tests for the benchmark's own arithmetic.

Run from the repository root:  python -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_nearest_rank_percentile():
    assert stats.percentile([3, 1, 2], 50) == 2
    assert stats.percentile([4, 1, 3, 2], 50) == 2
    assert stats.percentile(list(range(1, 101)), 90) == 90
    assert stats.percentile([5], 90) == 5
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, beyond, supported", [
    (100, 10, True), (99, 9, False), (150, 15, True), (10, 1, False)])
def test_p90_needs_ten_samples_beyond(n, beyond, supported):
    summary = stats.latency_summary([float(i) for i in range(n, 0, -1)])
    assert summary["samples"] == n
    assert summary["beyond_p90"] == beyond
    assert summary["p90_supported"] is supported


def test_ties_at_the_percentile_are_not_beyond_it():
    summary = stats.latency_summary([1.0] * 95 + [2.0] * 5)
    assert summary["p90"] == 1.0
    assert summary["beyond_p90"] == 5


def _span(sid, parent, start, end):
    return tracing.Span(sid, f"s{sid}", parent, 0, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, 0, 100),
        _span(1, 0, 10, 40),
        _span(2, 0, 30, 60),    # overlaps its sibling: covered time counts once
        _span(3, 1, 15, 25),    # grandchild: charged to span 1, not to 0
        _span(4, 0, 90, 120),   # runs past its parent: clipped at 100
    ]
    assert tracing.self_times(spans) == {0: 40, 1: 20, 2: 30, 3: 10, 4: 30}


def test_tracer_records_nested_spans_through_reexported_names():
    mods = run.load_api(SRC)
    stack = mods["stack"]
    originals = (stack.layer_forward, stack.chunked_forward, mods["embedding"].vertical_infer)
    model = mods["model_io"].generate_model(stack.ModelSpec(**workloads.SPEC))
    tokens = np.arange(40) % 63

    tracer = tracing.Tracer(mods)
    tracer.request = 7
    with tracer:
        stack.vertical_infer(model, np.concatenate([tokens, tokens]), 64, 16)
        tracer.request = 8
        mods["embedding"].embed_sequence(model, np.concatenate([tokens, tokens]),
                                         strategy="vertical")
    restored = (stack.layer_forward, stack.chunked_forward, mods["embedding"].vertical_infer)
    assert restored == originals

    by_id = {s.sid: s for s in tracer.spans}
    names = {s.name for s in tracer.spans}
    assert {"stack.vertical_infer", "stack.layer_forward", "chunked.chunked_forward",
            "chunked.intra_chunk", "chunked.propagate_states"} <= names
    intra = next(s for s in tracer.spans if s.name == "chunked.intra_chunk")
    assert by_id[intra.parent].name == "chunked.chunked_forward"
    assert by_id[by_id[intra.parent].parent].name == "stack.layer_forward"
    first = [s for s in tracer.spans if s.request == 7]
    assert all(by_id[s.parent].request == s.request for s in tracer.spans if s.parent is not None)
    embed_root = next(s for s in tracer.spans if s.name == "embedding.embed_sequence")
    assert any(s.parent == embed_root.sid and s.name == "stack.vertical_infer"
               for s in tracer.spans)

    (root,) = [s for s in first if s.parent is None]
    assert root.name == "stack.vertical_infer"
    assert root.counts["intra"] > 0 and root.counts["ledger_peak"] > 0
    assert sum(tracing.self_times(first).values()) == root.end - root.start


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_same_seed_gives_byte_identical_inputs(cls):
    first = workloads.canonical_bytes(cls.make_inputs(7))
    assert workloads.canonical_bytes(cls.make_inputs(7)) == first
    assert workloads.canonical_bytes(cls.make_inputs(8)) != first


def test_embed_lengths_are_stratified_and_in_range():
    inputs = workloads.EmbedQueries.make_inputs(3)
    q = sorted(len(t.split()) for t in inputs["queries"])
    p = sorted(len(t.split()) for t in inputs["passages"])
    assert (q[0], q[-1], p[0], p[-1]) == (8, 60, 60, 400)
    assert q == sorted(len(t.split()) for t in workloads.EmbedQueries.make_inputs(4)["queries"])
