"""Residual stacks of state-space layers and the inference schedule.

Each layer RMS-normalizes its input, projects it to per-head coefficients
(a, B, C) and a scalar input channel per head, runs the state-space kernel,
and adds the per-head outputs back to the residual stream through a fixed
output projection.

One block loop, ``infer``, evaluates a stack: it runs each block of
``block_len`` positions through all layers, carrying one state vector per
layer across blocks.  The two schedules are two block lengths:

  horizontal - one block spanning the whole sequence, i.e. layer at a time.
               Activation footprint grows linearly with sequence length;
               exactly one layer's input and output buffers are live at once.
  vertical   - blocks of ``V`` positions.  Activation footprint is
               independent of sequence length once it exceeds the block
               length; a sequence within one block is the horizontal case.

Under every kernel but dense, each layer call runs whole chunks: a ragged
block (length not a multiple of Q, such as every embedding query) is padded
with zero rows in the normalized buffer each layer makes anyway, its gates
set to 1 there, and trimmed from each layer's output (see ``layer_forward``).
So ``infer`` never hands the chunked or recurrent kernel or ``_chunk_matmul``
a ragged length, the chunked kernel's own ragged path serves direct callers
only, and a ragged block gives the bits of the same rows of any longer block.

Both return an InferenceResult with the final block's hidden states, the
memory ledger and the flop counter (closed forms of the block shapes, see
``_block_elements`` and ``chunked.stage_flops``), and the final per-layer
states (resumable via the snapshot helpers at the bottom of this module).
"""

from __future__ import annotations

import functools
import json
import os
import uuid
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .chunked import (DEFAULT_DENSE_LIMIT, chunked_forward, dense_dual, stage_flops,
                      workspace_elements)
from .core import SsmCoefficients, _as_f64, _as_int, recurrent_scan
from .errors import DimensionError, FormatError, ValidationError
from .instrumentation import FlopCounter, MemoryLedger

__all__ = [
    "RMS_EPS",
    "KERNELS",
    "ModelSpec",
    "LayerParams",
    "StackedModel",
    "InferenceResult",
    "layer_shapes",
    "generate_coefficients",
    "layer_forward",
    "infer",
    "horizontal_infer",
    "vertical_infer",
    "export_state_snapshot",
    "import_state_snapshot",
    "atomic_write",
    "save_state_snapshot",
    "load_state_snapshot",
]

RMS_EPS = 1e-8
KERNELS = ("chunked", "recurrent", "dense")

# positions per row group at least (see infer): in smaller groups, small-array
# NumPy calls serialize on the interpreter lock
_MIN_GROUP_POSITIONS = 8192
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


@functools.cache
def _row_pool(pid: int):
    """The row-group thread pool of process ``pid`` (always ``os.getpid()``),
    built on its first split call.  Keyed by process, so a forked child,
    whose inherited pool has no threads and would hang its callers, builds
    its own; nothing is registered on import.  Two threads making their
    first split calls at once may each build one: the one not cached is
    freed when its call returns."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(_CPUS, thread_name_prefix="ssdkit-rows")


def layer_shapes(H: int, d: int, N: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of one layer's tensors, in serialization and draw order."""
    return {"w_a": (H, d), "b_a": (H,), "W_B": (H, N, d), "W_C": (H, N, d),
            "W_x": (H, d), "W_out": (H, d), "gamma": (d,)}


@dataclass(frozen=True)
class ModelSpec:
    """Model configuration.

    Fields:
        seed:        generator seed for the parameter stream.
        L:           number of layers.
        d:           residual channel count.
        H:           heads per layer.
        N:           state dimension per head.
        vocab_size:  token vocabulary size; the highest id is reserved as the
                     end-of-sequence marker used for pooling.
        Q:           default chunk size.
        V:           default vertical block length (multiple of Q).
        dense_limit: maximum length the dense kernel will materialize.
    """

    seed: int = 42
    L: int = 4
    d: int = 16
    H: int = 2
    N: int = 4
    vocab_size: int = 256
    Q: int = 16
    V: int = 32
    dense_limit: int = DEFAULT_DENSE_LIMIT

    def __post_init__(self):
        # every other field is at least 1; vocab_size keeps one id for the marker
        minimum = {"seed": 0, "vocab_size": 2}
        for f in fields(self):
            value = _as_int(getattr(self, f.name), f"ModelSpec.{f.name}", minimum.get(f.name, 1))
            object.__setattr__(self, f.name, value)
        if self.V % self.Q != 0:
            raise ValidationError(
                f"vertical block V={self.V} must be a multiple of chunk size Q={self.Q}")

    @property
    def eos_id(self) -> int:
        return self.vocab_size - 1


@dataclass
class LayerParams:
    """One layer's parameters.

    w_a/b_a project the normalized input to the transition logit per head;
    W_B/W_C to the state input/readout maps; W_x to the scalar input channel
    per head; W_out maps head outputs back to the residual channels; gamma is
    the normalization scale.

    The projections use two derived operands with gamma folded in, so the
    normalized input is never scaled on its own: W_in, (H(2N+1), d), stacks
    the rows of W_B, W_C and W_x times gamma, so that one product per chunk
    gives B, C and x, and w_gate is w_a times gamma (see
    ``generate_coefficients``).  Both are built once, on construction, from
    the stored tensors and never serialized; nothing assigns a layer tensor
    after construction, so they stay in step with it.
    """

    w_a: np.ndarray    # (H, d)
    b_a: np.ndarray    # (H,)
    W_B: np.ndarray    # (H, N, d)
    W_C: np.ndarray    # (H, N, d)
    W_x: np.ndarray    # (H, d)
    W_out: np.ndarray  # (H, d)
    gamma: np.ndarray  # (d,)
    W_in: np.ndarray = field(init=False, repr=False, compare=False)
    w_gate: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape_a, shape_b = np.shape(self.w_a), np.shape(self.W_B)
        if len(shape_a) != 2 or len(shape_b) != 3:
            raise DimensionError(f"LayerParams needs w_a (H, d) and W_B (H, N, d), "
                                 f"got shapes {shape_a} and {shape_b}")
        (h, d), n = shape_a, shape_b[1]
        for name, shape in layer_shapes(h, d, n).items():
            setattr(self, name, _as_f64(getattr(self, name), name, shape))
        # column-major, so the products' operands w_gate.T and W_in.T are
        # row-major (twice as fast per chunk as the transposed views)
        self.w_gate = np.asfortranarray(self.w_a * self.gamma)
        self.W_in = np.asfortranarray(
            np.concatenate([self.W_B.reshape(-1, d), self.W_C.reshape(-1, d), self.W_x])
            * self.gamma)

    @property
    def heads(self) -> int:
        return self.w_a.shape[0]

    @property
    def d(self) -> int:
        return self.w_a.shape[1]

    @property
    def state_dim(self) -> int:
        return self.W_B.shape[1]


@dataclass
class StackedModel:
    spec: ModelSpec
    embedding: np.ndarray  # (vocab_size, d)
    layers: list[LayerParams] = field(default_factory=list)

    def __post_init__(self):
        self.embedding = _as_f64(self.embedding, "embedding",
                                 (self.spec.vocab_size, self.spec.d))
        if len(self.layers) != self.spec.L:
            raise DimensionError(
                f"model has {len(self.layers)} layers, spec says {self.spec.L}")
        for i, layer in enumerate(self.layers):
            if (layer.heads, layer.d, layer.state_dim) != (self.spec.H, self.spec.d, self.spec.N):
                raise DimensionError(f"layer {i} dims do not match spec")


@dataclass
class InferenceResult:
    """Outputs of one inference call.

    hidden: final-layer hidden states of the final block: the full sequence
            for the horizontal schedule (one block), the last V positions
            or fewer for the vertical one.
    states: final per-layer kernel states (L, batch, H, N), usable as
            initial_states of a continuation call.
    flops:  per-stage kernel flops: ``chunked.stage_flops`` of each block's
            kernel call, summed over layers; zero for the recurrent kernel.
    """

    hidden: np.ndarray
    ledger: MemoryLedger
    flops: FlopCounter
    states: np.ndarray | None


def _check_channels(params: LayerParams, u) -> np.ndarray:
    u = _as_f64(u, "u")
    if u.ndim != 3 or u.shape[2] != params.d:
        raise DimensionError(
            f"layer input shape {u.shape} does not match (batch, length, {params.d})")
    if u.shape[1] < 1:
        raise ValidationError("sequence length must be at least 1")
    return u


def _normalize(u: np.ndarray, rows: int) -> np.ndarray:
    """u / rms(u) per position, as the first of ``rows`` rows; any later rows
    are zero.  gamma is folded into the projection operands."""
    b, t, d = u.shape
    rms = np.einsum("btd,btd->bt", u, u)
    rms /= d
    rms += RMS_EPS
    np.sqrt(rms, out=rms)
    if rows == t:
        return u / rms[..., None]
    un = np.zeros((b, rows, d))
    np.divide(u, rms[..., None], out=un[:, :t])
    return un


def _chunk_matmul(x: np.ndarray, w: np.ndarray, out: np.ndarray,
                  chunk_size: int | None) -> np.ndarray:
    """out[:, i] = x[:, i] @ w, one batched product per chunk of positions.

    x is (batch, length, k) and out (batch, length, m), written in place: one
    np.matmul over the (batch, chunks, chunk_size, k) view (one chunk
    spanning the call when None), plus one for a ragged tail, as one chunk
    of its own length (for generate_coefficients' callers and the dense
    kernel: every other layer call pads to whole chunks first).  A single
    product over all rows is not used
    because it is not row-slice invariant: the bits of a row can depend on
    how many rows share the call.  Fixing every product's shape to its chunk
    gives a position the same bits in any call whose chunks start where its
    own do.
    """
    b, t, k = x.shape
    m = out.shape[-1]
    q = t if chunk_size is None else min(chunk_size, t)
    full = t - t % q
    whole, whole_out = x, out
    if full < t:  # the tail, as one chunk of its own length
        np.matmul(x[:, None, full:], w, out=out[:, None, full:])
        whole, whole_out = x[:, :full], out[:, :full]
    np.matmul(whole.reshape(b, -1, q, k), w, out=whole_out.reshape(b, -1, q, m))
    return out


def generate_coefficients(params: LayerParams, u, chunk_size: int | None = None):
    """Project a layer input (batch, length, d) to per-position coefficients.

    The input is RMS-normalized per position before projection.  Transition
    scalars are squashed to (0, 1) as 1 / (1 + exp(logit)), which is
    exp(-softplus(logit)); a zero input with zero bias therefore yields
    a = 0.5, and logits beyond the float range saturate to exactly 0 or 1.

    The projections are one BLAS product per chunk of ``chunk_size``
    positions (one chunk spanning the call when None, see ``_chunk_matmul``):
    one with w_gate for the gate logits and one with the stacked W_in for B,
    C and x, both with gamma folded in.  Chunk-aligned vertical blocks and
    split calls therefore reproduce one whole-sequence call exactly.

    Returns (coeffs, x): the SsmCoefficients and the (batch, length, H) input
    channel; B, C and x are views of one (batch, length, H(2N+1)) buffer.
    """
    u = _check_channels(params, u)
    if chunk_size is not None:
        _as_int(chunk_size, "chunk size", 1)
    t = u.shape[1]
    return _project(params, _normalize(u, t), chunk_size, t)


@np.errstate(over="ignore")  # as a decorator, half the cost of a with block per call
def _exp_in_place(a: np.ndarray) -> None:
    np.exp(a, out=a)


def _project(params: LayerParams, un: np.ndarray, chunk_size: int | None, t: int):
    """generate_coefficients of the normalized rows un, of which those from
    t on are zero padding: their gates are set to 1, and B = C = x = 0 there,
    so they leave the state as it is and add zeros."""
    b, rows, _ = un.shape
    h, n = params.heads, params.state_dim
    a = _chunk_matmul(un, params.w_gate.T, np.empty((b, rows, h)), chunk_size)
    proj = _chunk_matmul(un, params.W_in.T, np.empty((b, rows, params.W_in.shape[0])),
                         chunk_size)
    # a = 1 / (1 + e^(logit)) in place; overflow to inf gives exactly 0.  b_a
    # is added as a (rows, H) row-tiled operand: broadcast as (H,), the add
    # runs one H-long inner loop per position
    a += params.b_a[None].repeat(rows, 0)
    _exp_in_place(a)
    a += 1.0
    np.reciprocal(a, out=a)
    if rows > t:
        a[:, t:] = 1.0
    hn = h * n
    Bmat = proj[..., :hn].reshape(b, rows, h, n)
    Cmat = proj[..., hn:2 * hn].reshape(b, rows, h, n)
    x = proj[..., 2 * hn:]
    return SsmCoefficients(a, Bmat, Cmat, validate=False), x


def layer_forward(params: LayerParams, u, state=None, chunk_size: int | None = None, *,
                  kernel: str = "chunked", dense_limit: int = DEFAULT_DENSE_LIMIT,
                  fault=None):
    """One residual layer: v = u + head outputs mapped back to channels.

    Args:
        params:     layer parameters.
        u:          (batch, length, d) input channels.
        state:      optional (batch, H, N) kernel state entering the layer.
        chunk_size: chunk length for the chunked kernel and for the input
                    and output projections of every kernel: each is one
                    product per chunk (see generate_coefficients).
        kernel:     "chunked", "recurrent", or "dense"; all three compute the
                    same map, differing in cost profile.
        fault:      one of ``chunked.FAULT_MODES``, for the chunked kernel only.

    Under every kernel but dense (whose one block spans the call) a ragged
    length runs padded to a whole number of chunks when chunk_size is given:
    the normalized rows gain zero rows, whose gates are 1 (see
    ``_project``), so every product and the kernel call are chunk-aligned,
    and v is the real rows of the padded output.  Its rows are those of any
    longer call over the same first positions, bit for bit.

    Returns:
        (v, new_state): output channels and the kernel state at the end of
        the span.
    """
    if kernel not in KERNELS:
        raise ValidationError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    if fault is not None and kernel != "chunked":
        raise ValidationError(f"fault {fault!r} applies to the chunked kernel only, "
                              f"not {kernel!r}")
    u = _check_channels(params, u)
    if chunk_size is not None:
        chunk_size = _as_int(chunk_size, "chunk size", 1)
    if kernel == "chunked" and chunk_size is None:
        raise ValidationError("chunk_size is required for the chunked kernel")
    b, t, d = u.shape
    rows = t if kernel == "dense" or chunk_size is None else -(-t // chunk_size) * chunk_size
    coeffs, x = _project(params, _normalize(u, rows), chunk_size, t)

    if kernel == "chunked":
        y, hT = chunked_forward(coeffs, x, chunk_size, state, fault=fault)
    elif kernel == "recurrent":
        y, hT = recurrent_scan(coeffs, x, state)
    else:
        y, hT = dense_dual(coeffs, x, state, dense_limit=dense_limit)
    del coeffs, x  # a, B, C and x are dead: free them before v is allocated

    v = _chunk_matmul(y, params.W_out, np.empty((b, rows, d)), chunk_size)
    if rows > t:
        v = v[:, :t]
    v += u
    return v, hT


def _block_elements(spec: ModelSpec, batch: int, t: int, q: int, kernel: str) -> int:
    """Peak float64 elements one block of t positions holds in a layer call.

    The buffers live in order: the input u throughout; the normalized un
    until a, B, C and x exist; then the kernel's workspace, which for the
    recurrent kernel is its output y alone; then y and the output v.  Under
    every kernel but dense each spans t rounded up to whole chunks (see
    layer_forward), and the kernel call is chunk-aligned.
    """
    if kernel != "dense":
        t = -(-t // q) * q
    P = batch * t * spec.d  # u, un, v
    E = batch * t * spec.H  # a, x, y
    F = E * spec.N          # B, C
    W = E if kernel == "recurrent" else workspace_elements(
        batch, t, spec.H, spec.N, t if kernel == "dense" else q)
    return P + max(P + 2 * E + 2 * F, 2 * E + 2 * F + W, E + P)


def _check_tokens(tokens, vocab_size: int) -> np.ndarray:
    """tokens as a 1-D or 2-D (batch, length) array of ids in [0, vocab_size)."""
    try:
        arr = np.asarray(tokens)
    except ValueError as exc:  # a ragged nested list
        raise DimensionError(f"token rows must have one length: {exc}") from exc
    if arr.ndim not in (1, 2):
        raise DimensionError(f"tokens must be 1-D or 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError("token sequence is empty")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"token ids must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= vocab_size:
        raise ValidationError(
            f"token ids must lie in [0, {vocab_size}), got range "
            f"[{arr.min()}, {arr.max()}]")
    return arr


def _block_forward(model: StackedModel, tok: np.ndarray, states: np.ndarray, fresh: bool,
                   q: int, kernel: str, fault) -> np.ndarray:
    """One block's token rows through every layer, updating states (L, rows, H, N)."""
    u = model.embedding[tok]
    for li, layer in enumerate(model.layers):
        u, states[li] = layer_forward(layer, u, None if fresh else states[li], q,
                                      kernel=kernel, dense_limit=model.spec.dense_limit,
                                      fault=fault)
    return u


def _split_forward(groups: int, model: StackedModel, tok: np.ndarray, states: np.ndarray,
                   *args) -> np.ndarray:
    """``_block_forward`` on row groups at once; all finish before the first
    group's error, in row order, is raised."""
    batch = tok.shape[0]
    pool = _row_pool(os.getpid())
    futures = [pool.submit(_block_forward, model, tok[lo:hi], states[:, lo:hi], *args)
               for lo, hi in ((i * batch // groups, (i + 1) * batch // groups)
                              for i in range(groups))]
    for future in futures:
        future.exception()  # waits without raising
    return np.concatenate([future.result() for future in futures])


def infer(model: StackedModel, tokens, block_len: int | None = None,
          chunk_size: int | None = None, *, kernel: str = "chunked",
          initial_states=None, sink=None, fault=None) -> InferenceResult:
    """Block-at-a-time inference through all layers, states carried across.

    Args:
        block_len:      positions per block, a multiple of the chunk size;
                        None runs one block spanning the whole sequence.
        chunk_size:     chunk length (default model.spec.Q).
        kernel:         "chunked", "recurrent", or "dense" (see layer_forward);
                        the dense kernel is guarded by model.spec.dense_limit.
        initial_states: optional (L, batch, H, N) states from a previous call
                        on the preceding positions.
        sink:           optional callable(start, hidden_block) receiving every
                        block's final-layer output; storage at the sink is the
                        caller's, not counted by the ledger.

    The ledger's peak is the carried (L, batch, H, N) state buffer plus the
    largest layer footprint of a block (``_block_elements``), over the full
    block length and the ragged last one.  The result's hidden field covers
    the final block only.

    A block of n positions runs as g = min(CPUs available, batch, batch * n
    // 8192) contiguous row groups, at once on a thread pool when g >= 2.
    Rows never interact and every operation works per row, so the results
    keep their bits; the ledger, linear in the batch, is unchanged.
    """
    spec = model.spec
    q = _as_int(chunk_size, "chunk size", 1) if chunk_size is not None else spec.Q
    if block_len is not None:
        block_len = _as_int(block_len, "block length", 1)
        if block_len % q != 0:
            raise ValidationError(
                f"vertical block length {block_len} must be a multiple of chunk size {q}")
    if sink is not None and not callable(sink):
        raise ValidationError(f"sink must be callable, got {sink!r}")
    tok = np.atleast_2d(_check_tokens(tokens, spec.vocab_size))
    batch, t = tok.shape
    step = block_len if block_len is not None else t
    flops = FlopCounter()

    states = np.zeros((spec.L, batch, spec.H, spec.N))
    if initial_states is not None:
        states[:] = _as_f64(initial_states, "initial_states", states.shape)

    # the states entering the first block are zero unless carried in; None
    # skips the kernels' state checks and the first chunk's correction
    blocks = Counter((min(step, t - start), start == 0 and initial_states is None)
                     for start in range(0, t, step))
    if kernel != "recurrent":  # once per block shape, at most three
        for (n, fresh), count in blocks.items():
            f = stage_flops(batch, n, spec.H, spec.N, n if kernel == "dense" else q,
                            carry_in=not fresh)
            flops.intra += spec.L * count * f.intra
            flops.propagate += spec.L * count * f.propagate
            flops.inter += spec.L * count * f.inter

    for start in range(0, t, step):
        fresh = start == 0 and initial_states is None
        n = min(step, t - start)
        # drop the previous block's output first: kept alive through this
        # block's layers, it would put the traced peak above the ledger's
        u = None
        groups = min(_CPUS, batch, batch * n // _MIN_GROUP_POSITIONS)
        rows = tok[:, start:start + n]
        if groups < 2:
            u = _block_forward(model, rows, states, fresh, q, kernel, fault)
        else:
            u = _split_forward(groups, model, rows, states, fresh, q, kernel, fault)
        if sink is not None:
            sink(start, u.copy())
    peak = max(_block_elements(spec, batch, n, q, kernel) for n, _ in blocks)
    ledger = MemoryLedger(peak_elements=states.size + peak,
                          per_layer_state_elements=states.size)
    return InferenceResult(u, ledger, flops, states)


def horizontal_infer(model: StackedModel, tokens, chunk_size: int | None = None, *,
                     kernel: str = "chunked", fault=None) -> InferenceResult:
    """Layer-at-a-time inference: ``infer`` with one block spanning the sequence."""
    return infer(model, tokens, None, chunk_size, kernel=kernel, fault=fault)


def vertical_infer(model: StackedModel, tokens, block_len: int | None = None,
                   chunk_size: int | None = None, *, initial_states=None,
                   sink=None, fault=None) -> InferenceResult:
    """Bounded-memory inference: ``infer`` with blocks of block_len positions
    (default model.spec.V), so activation memory is flat in sequence length."""
    return infer(model, tokens, block_len if block_len is not None else model.spec.V,
                 chunk_size, initial_states=initial_states, sink=sink, fault=fault)


# ---------------------------------------------------------------------------
# Resumable-state snapshots
# ---------------------------------------------------------------------------

SNAPSHOT_VERSION = 1


def export_state_snapshot(states) -> dict:
    """Serialize per-layer states (L, batch, H, N) to a plain document.

    Float values survive JSON round-trips bit-exactly (shortest-repr decimal
    serialization), so save/load returns the identical array.
    """
    states = _as_f64(states, "states")
    if states.ndim != 4:
        raise DimensionError(f"states must be (L, batch, H, N), got {states.shape}")
    layers, batch, heads, n = states.shape
    return {
        "version": SNAPSHOT_VERSION,
        "layer_count": layers,
        "b": batch,
        "h": heads,
        "n": n,
        "states": [states[i].ravel(order="C").tolist() for i in range(layers)],
    }


def import_state_snapshot(doc: dict) -> np.ndarray:
    """Inverse of export_state_snapshot, with structural validation.

    Dimensions must be non-negative integers and every state value a finite
    JSON number; anything else is a FormatError, never coerced.
    """
    try:
        version = _as_int(doc["version"], "snapshot version", error=FormatError)
        dims = tuple(_as_int(doc[k], k, 0, error=FormatError)
                     for k in ("layer_count", "b", "h", "n"))
        flat = doc["states"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed state snapshot: {exc}") from exc
    if version != SNAPSHOT_VERSION:
        raise FormatError(f"unsupported snapshot version {version}")
    layers, batch, heads, n = dims
    if not isinstance(flat, list):
        raise FormatError("snapshot states must be a list of per-layer value lists")
    if len(flat) != layers:
        raise FormatError(
            f"snapshot declares {layers} layers but carries {len(flat)}")
    per_layer = batch * heads * n
    for i, values in enumerate(flat):
        if not isinstance(values, list):
            raise FormatError(f"layer {i} values must be a list")
        if len(values) != per_layer:
            raise FormatError(
                f"layer {i} carries {len(values)} values, expected {per_layer}")
        # one check per distinct element type, so the cost stays O(values)
        if any(issubclass(t, bool) or not issubclass(t, (int, float))
               for t in set(map(type, values))):
            raise FormatError(f"layer {i} carries values that are not numbers")
    # sized by the values carried, which now match the declared dimensions
    try:
        out = np.array(flat, dtype=np.float64).reshape(dims)
    except OverflowError as exc:
        raise FormatError("snapshot carries a value out of float range") from exc
    if not np.isfinite(out).all():
        raise FormatError("snapshot carries non-finite state values")
    return out


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a fresh temp file beside ``path`` for writing ("w" or "wb" mode).

    When the block completes the file is flushed, fsynced and renamed over
    ``path``; when it raises the temp file is removed, so ``path`` is either
    left as it was or fully replaced, never half-written.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_state_snapshot(path, states) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(export_state_snapshot(states), fh)


def load_state_snapshot(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"state snapshot is not valid JSON: {exc}") from exc
    return import_state_snapshot(doc)
