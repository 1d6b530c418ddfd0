"""The benchmark's workloads: seeded inputs, calls, and output checks.

Every workload runs the ROADMAP baseline model (SPEC) from one
single-threaded, closed-loop client: one caller, each call waiting for the
previous one.  Inputs come only from the workload seed; the package sees
only the generated token arrays and texts.

stream-long
    One 32,768-token document at batch 1, run by ``vertical_infer``
    (V=64, Q=16) in 1,024-token segments.  After each segment the final
    states go export_state_snapshot -> JSON text -> import_state_snapshot and
    seed the next segment.  The memory-bounded long-context path with
    checkpoint/resume: each layer_forward sees 64 positions (4 chunks), so
    fixed per-call cost in stack/chunked dominates and memory stays flat.
    Bypasses the embedding head and the horizontal schedule.
batch-horizontal
    Batch 8 x 4,096 tokens through ``horizontal_infer`` (Q=16), 256 chunks
    per layer call.  The offline throughput path: time goes into the chunked
    stage-1 array work and activation memory grows with T.  Bypasses the
    vertical schedule, snapshots and the embedding head.
embed-queries
    Instruction queries of 8-60 words go format_query -> tokenize_words ->
    embed_sequence (default strategy; most are shorter than V and take the
    short-sequence delegation, with ragged T % Q != 0).  Passages of 60-400
    words are embedded with strategy="vertical" over several blocks.  Each
    query is scored by cosine_similarity and info_nce_loss against 1
    positive and 7 negative passages.  A per-request latency path where
    per-call overhead (validation, allocation, ledger bookkeeping,
    tokenizer) outweighs kernel work.  Bypasses snapshots.

Lengths in embed-queries are stratified (evenly spaced over their range,
shuffled by the seed), so every seed sees the same length mix and runs with
different seeds stay comparable.

Each call is checked after it returns, outside its timing; ``checks`` runs
the whole-run checks.  The shared cross_layer_check also runs on every
workload, so each traced run has spans for every layer, bypassed or not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

SPEC = dict(seed=42, L=4, d=16, H=2, N=4, vocab_size=64, Q=16, V=64)
TOLERANCE = 1e-9

PROMPTS = (
    "Given a web search query, retrieve relevant passages that answer the query",
    "Given a question, retrieve passages from the corpus that contain its answer",
    "Retrieve documents that describe the topic named in the following request",
    "Find the paragraph that best supports the claim made in the user input",
)


@dataclass
class Call:
    """One operation: ``run`` is timed, ``verify`` checks its output untimed."""

    run: Callable[[], object]
    tokens: int
    verify: Callable[[object], bool]


def _close(got, ref) -> bool:
    return got.shape == ref.shape and bool(np.max(np.abs(got - ref)) <= TOLERANCE)


def _lexicon(rng, size: int = 4096) -> list[str]:
    lengths = rng.integers(2, 11, size)
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)[
        rng.integers(0, 26, int(lengths.sum()))].tobytes().decode()
    ends = np.cumsum(lengths)
    return [letters[e - n:e] for e, n in zip(ends, lengths)]


def _texts(rng, lexicon, lo: int, hi: int, count: int) -> list[str]:
    """``count`` texts whose word counts are spread evenly over [lo, hi]."""
    counts = np.linspace(lo, hi, count).round().astype(np.int64)
    rng.shuffle(counts)
    return [" ".join(lexicon[i] for i in rng.integers(0, len(lexicon), n)) for n in counts]


class StreamLong:
    name = "stream-long"
    DOC = 32_768
    SEGMENT = 1024
    ROUND = 2  # segments per round; rounds walk the document and wrap

    @staticmethod
    def make_inputs(seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        return {"doc": rng.integers(0, SPEC["vocab_size"] - 1, StreamLong.DOC)}

    def __init__(self, api, model, inputs):
        self.api, self.model, self.doc = api, model, inputs["doc"]
        self.states = None

    def prepare(self) -> None:
        ref = self.api.stack.horizontal_infer(self.model, self.doc, SPEC["Q"])
        self.ref_hidden, self.ref_states = ref.hidden, ref.states

    def _segment(self, s: int) -> Call:
        stack, model, seg = self.api.stack, self.model, self.SEGMENT
        tokens = self.doc[s * seg:(s + 1) * seg]
        last = self.DOC // seg - 1

        def run():
            if s == 0:
                self.states = None
            res = stack.vertical_infer(model, tokens, SPEC["V"], SPEC["Q"],
                                       initial_states=self.states)
            text = json.dumps(stack.export_state_snapshot(res.states))
            self.states = stack.import_state_snapshot(json.loads(text))
            return res.hidden

        def verify(hidden):
            stop = (s + 1) * seg
            ok = np.array_equal(hidden, self.ref_hidden[:, stop - hidden.shape[1]:stop])
            return ok and (s != last or np.array_equal(self.states, self.ref_states))

        return Call(run, seg, verify)

    def round(self, r: int) -> list[Call]:
        segments = self.DOC // self.SEGMENT
        return [self._segment((r * self.ROUND + j) % segments) for j in range(self.ROUND)]

    def checks(self) -> list[bool]:
        """The snapshot-resumed outputs, concatenated, equal one horizontal pass."""
        stack, seg = self.api.stack, self.SEGMENT
        blocks, states = [], None
        for s in range(self.DOC // seg):
            res = stack.vertical_infer(self.model, self.doc[s * seg:(s + 1) * seg],
                                       SPEC["V"], SPEC["Q"], initial_states=states,
                                       sink=lambda start, block: blocks.append(block))
            text = json.dumps(stack.export_state_snapshot(res.states))
            states = stack.import_state_snapshot(json.loads(text))
        whole = np.concatenate(blocks, axis=1)
        return [np.array_equal(whole, self.ref_hidden) and np.array_equal(states, self.ref_states)]


class BatchHorizontal:
    name = "batch-horizontal"
    BATCH, LENGTH, DISTINCT = 8, 4096, 2

    @staticmethod
    def make_inputs(seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        shape = (BatchHorizontal.BATCH, BatchHorizontal.LENGTH)
        return {"batches": [rng.integers(0, SPEC["vocab_size"] - 1, shape)
                            for _ in range(BatchHorizontal.DISTINCT)]}

    def __init__(self, api, model, inputs):
        self.api, self.model, self.batches = api, model, inputs["batches"]

    def prepare(self) -> None:
        """Reference outputs from the recurrent kernel, the sequential oracle."""
        self.refs = [self.api.stack.horizontal_infer(self.model, b, SPEC["Q"],
                                                     kernel="recurrent").hidden
                     for b in self.batches]

    def round(self, r: int) -> list[Call]:
        i = r % len(self.batches)
        stack, model, tokens = self.api.stack, self.model, self.batches[i]
        return [Call(lambda: stack.horizontal_infer(model, tokens, SPEC["Q"]).hidden,
                     tokens.size, lambda hidden: _close(hidden, self.refs[i]))]

    def checks(self) -> list[bool]:
        return []


class EmbedQueries:
    name = "embed-queries"
    QUERIES, PASSAGES = 256, 64
    PASSAGES_PER_ROUND, QUERIES_PER_ROUND = 8, 32

    @staticmethod
    def make_inputs(seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        lexicon = _lexicon(rng)
        return {"prompt": PROMPTS[int(rng.integers(len(PROMPTS)))],
                "queries": _texts(rng, lexicon, 8, 60, EmbedQueries.QUERIES),
                "passages": _texts(rng, lexicon, 60, 400, EmbedQueries.PASSAGES)}

    def __init__(self, api, model, inputs):
        self.api, self.model = api, model
        self.prompt, self.queries, self.passages = (
            inputs["prompt"], inputs["queries"], inputs["passages"])
        self.vectors = [None] * self.PASSAGES_PER_ROUND

    def _embed_text(self, text: str, strategy: str):
        emb = self.api.embedding
        tokens = emb.tokenize_words(text, SPEC["vocab_size"])
        return emb.embed_sequence(self.model, tokens, strategy=strategy).vector

    def prepare(self) -> None:
        """References from the other schedule than the timed call uses."""
        fq = self.api.embedding.format_query
        self.query_texts = [fq(self.prompt, q) for q in self.queries]
        self.ref_passages = [self._embed_text(p, "horizontal") for p in self.passages]
        self.ref_queries = [self._embed_text(q, "vertical") for q in self.query_texts]

    def _passage(self, p: int, slot: int) -> Call:
        text = self.passages[p]

        def run():
            vec = self._embed_text(text, "vertical")
            self.vectors[slot] = vec
            return vec

        return Call(run, len(text.split()) + 1, lambda vec: _close(vec, self.ref_passages[p]))

    def _query(self, q: int, slot: int) -> Call:
        emb, model, prompt, query = self.api.embedding, self.model, self.prompt, self.queries[q]
        k = self.PASSAGES_PER_ROUND

        def run():
            text = emb.format_query(prompt, query)
            vec = emb.embed_sequence(model, emb.tokenize_words(text, SPEC["vocab_size"])).vector
            sims = [emb.cosine_similarity(vec, v) for v in self.vectors]
            positive = self.vectors[slot]
            negatives = [self.vectors[j] for j in range(k) if j != slot]
            return vec, sims, emb.info_nce_loss(vec, positive, negatives)

        def verify(out):
            vec, sims, loss = out
            return (_close(vec, self.ref_queries[q])
                    and all(-1.0 <= s <= 1.0 for s in sims)
                    and np.isfinite(loss) and loss >= -TOLERANCE)

        return Call(run, len(self.query_texts[q].split()) + 1, verify)

    def round(self, r: int) -> list[Call]:
        kp, kq = self.PASSAGES_PER_ROUND, self.QUERIES_PER_ROUND
        calls = [self._passage((r * kp + j) % self.PASSAGES, j) for j in range(kp)]
        calls += [self._query((r * kq + j) % self.QUERIES, j % kp) for j in range(kq)]
        return calls

    def checks(self) -> list[bool]:
        return []


WORKLOADS = {w.name: w for w in (StreamLong, BatchHorizontal, EmbedQueries)}


def cross_layer_check(api, model, seed: int) -> list[bool]:
    """Small checks touching every traced layer, run on every workload.

    Vertical and horizontal embeddings of two texts agree; their cosine and
    contrastive loss are finite; a snapshot JSON round trip is bitwise; the
    recurrent kernel agrees with the chunked one on 1,024 tokens.
    """
    rng = np.random.default_rng([seed, 4])
    emb, stack = api.embedding, api.stack
    texts = [emb.format_query(PROMPTS[0], t) for t in _texts(rng, _lexicon(rng), 90, 150, 2)]
    vecs = {}
    for strategy in ("vertical", "horizontal"):
        vecs[strategy] = [emb.embed_sequence(model, emb.tokenize_words(t, SPEC["vocab_size"]),
                                             strategy=strategy).vector for t in texts]
    agree = all(_close(v, h) for v, h in zip(vecs["vertical"], vecs["horizontal"]))
    a, b = vecs["vertical"]
    scores = [emb.cosine_similarity(a, b), emb.info_nce_loss(a, b, [a])]

    tokens = rng.integers(0, SPEC["vocab_size"] - 1, 1024)
    chunked = stack.horizontal_infer(model, tokens, SPEC["Q"])
    recurrent = stack.horizontal_infer(model, tokens, SPEC["Q"], kernel="recurrent")
    text = json.dumps(stack.export_state_snapshot(chunked.states))
    restored = stack.import_state_snapshot(json.loads(text))
    return [agree, bool(np.all(np.isfinite(scores))),
            np.array_equal(restored, chunked.states),
            _close(recurrent.hidden, chunked.hidden)]


def canonical_bytes(inputs: dict) -> bytes:
    """Byte serialization of a workload's inputs, for reproducibility checks."""
    def encode(value):
        if isinstance(value, np.ndarray):
            return {"dtype": str(value.dtype), "shape": value.shape, "data": value.tobytes().hex()}
        if isinstance(value, list):
            return [encode(v) for v in value]
        return value
    return json.dumps({k: encode(v) for k, v in sorted(inputs.items())}).encode()
