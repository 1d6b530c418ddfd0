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

Both return an InferenceResult with the final block's hidden states, the
memory ledger and the flop counter (closed forms of the block shapes, see
``_block_elements`` and ``chunked.stage_flops``), and the final per-layer
states (resumable via the snapshot helpers at the bottom of this module).
"""

from __future__ import annotations

import json
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .chunked import (DEFAULT_DENSE_LIMIT, chunked_forward, dense_dual, stage_flops,
                      workspace_elements)
from .core import SsmCoefficients, _as_f64, recurrent_scan
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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"ModelSpec.{f.name} must be an integer, got {value!r}")
            object.__setattr__(self, f.name, int(value))
        for name in ("L", "d", "H", "N", "vocab_size", "Q", "V", "dense_limit"):
            if getattr(self, name) < 1:
                raise ValidationError(f"ModelSpec.{name} must be >= 1")
        if self.vocab_size < 2:
            raise ValidationError("vocab_size must be >= 2 (one id is reserved)")
        if self.V % self.Q != 0:
            raise ValidationError(
                f"vertical block V={self.V} must be a multiple of chunk size Q={self.Q}")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")

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
        h, d = np.shape(self.w_a)
        for name, shape in layer_shapes(h, d, np.shape(self.W_B)[1]).items():
            arr = _as_f64(getattr(self, name), name)
            if arr.shape != shape:
                raise DimensionError(f"LayerParams.{name} shape {arr.shape}, expected {shape}")
            setattr(self, name, arr)
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
        self.embedding = _as_f64(self.embedding, "embedding")
        if self.embedding.shape != (self.spec.vocab_size, self.spec.d):
            raise DimensionError(
                f"embedding shape {self.embedding.shape} does not match spec "
                f"({self.spec.vocab_size}, {self.spec.d})")
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


def _normalize(params: LayerParams, u: np.ndarray) -> np.ndarray:
    """u / rms(u) per position; gamma is folded into the projection operands."""
    rms = np.sqrt(np.einsum("btd,btd->bt", u, u) / params.d + RMS_EPS)
    return u / rms[..., None]


def _chunk_matmul(x: np.ndarray, w: np.ndarray, out: np.ndarray,
                  chunk_size: int | None) -> np.ndarray:
    """out[:, i] = x[:, i] @ w, one batched product per chunk of positions.

    x is (batch, length, k) and out (batch, length, m), written in place: one
    np.matmul over the full chunks of chunk_size positions (one chunk
    spanning the call when None) and one more for a ragged tail, as one
    chunk of its own length.  A single product over all rows is not used
    because it is not row-slice invariant: the bits of a row can depend on
    how many rows share the call.  Fixing every product's shape to its chunk
    gives a position the same bits in any call whose chunks start where its
    own do.
    """
    b, t, k = x.shape
    m = out.shape[-1]
    q = t if chunk_size is None else min(chunk_size, t)
    full = t - t % q
    for lo, hi, rows in ((0, full, q), (full, t, t - full)):
        if hi > lo:
            np.matmul(x[:, lo:hi].reshape(b, -1, rows, k), w,
                      out=out[:, lo:hi].reshape(b, -1, rows, m))
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
    if chunk_size is not None and chunk_size < 1:
        raise ValidationError(f"chunk size must be >= 1, got {chunk_size}")
    un = _normalize(params, u)
    b, t, _ = un.shape
    h, n = params.heads, params.state_dim
    a = _chunk_matmul(un, params.w_gate.T, np.empty((b, t, h)), chunk_size)
    proj = _chunk_matmul(un, params.W_in.T, np.empty((b, t, params.W_in.shape[0])),
                         chunk_size)
    # a = 1 / (1 + e^(logit)) in place; overflow to inf gives exactly 0
    a += params.b_a
    with np.errstate(over="ignore"):
        np.exp(a, out=a)
    a += 1.0
    np.reciprocal(a, out=a)
    hn = h * n
    Bmat = proj[..., :hn].reshape(b, t, h, n)
    Cmat = proj[..., hn:2 * hn].reshape(b, t, h, n)
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

    Returns:
        (v, new_state): output channels and the kernel state at the end of
        the span.
    """
    if kernel not in KERNELS:
        raise ValidationError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    coeffs, x = generate_coefficients(params, u, chunk_size)  # validates u
    u = np.asarray(u, dtype=np.float64)

    if kernel == "chunked":
        if chunk_size is None:
            raise ValidationError("chunk_size is required for the chunked kernel")
        y, hT = chunked_forward(coeffs, x, chunk_size, state, fault=fault)
    elif kernel == "recurrent":
        y, hT = recurrent_scan(coeffs, x, state)
    else:
        y, hT = dense_dual(coeffs, x, state, dense_limit=dense_limit)

    v = _chunk_matmul(y, params.W_out, np.empty(u.shape), chunk_size)
    v += u
    return v, hT


def _block_elements(spec: ModelSpec, batch: int, t: int, q: int, kernel: str) -> int:
    """Peak float64 elements one block of t positions holds in a layer call.

    The buffers live in order: the input u throughout; the normalized un
    until a, B, C and x exist; then the kernel's workspace, which for the
    recurrent kernel is its output y alone; y stays with a, B, C and x until
    the output v is formed.
    """
    P = batch * t * spec.d  # u, un, v
    E = batch * t * spec.H  # a, x, y
    F = E * spec.N          # B, C
    W = E if kernel == "recurrent" else workspace_elements(
        batch, t, spec.H, spec.N, t if kernel == "dense" else q)
    return P + max(P + 2 * E + 2 * F, 2 * E + 2 * F + W, 3 * E + 2 * F + P)


def _check_tokens(tokens, vocab_size: int) -> np.ndarray:
    arr = np.asarray(tokens)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DimensionError(f"tokens must be 1-D or 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError("token sequence is empty")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"token ids must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= vocab_size:
        raise ValidationError(
            f"token ids must lie in [0, {vocab_size}), got range "
            f"[{arr.min()}, {arr.max()}]")
    return arr


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
    """
    spec = model.spec
    q = chunk_size if chunk_size is not None else spec.Q
    if q < 1:
        raise ValidationError(f"chunk size must be >= 1, got {q}")
    if block_len is not None and block_len < 1:
        raise ValidationError(f"block length must be >= 1, got {block_len}")
    if block_len is not None and block_len % q != 0:
        raise ValidationError(
            f"vertical block length {block_len} must be a multiple of chunk size {q}")
    tok = _check_tokens(tokens, spec.vocab_size)
    batch, t = tok.shape
    step = block_len if block_len is not None else t
    flops = FlopCounter()

    states = np.zeros((spec.L, batch, spec.H, spec.N))
    if initial_states is not None:
        initial_states = _as_f64(initial_states, "initial_states")
        if initial_states.shape != states.shape:
            raise DimensionError(
                f"initial_states shape {initial_states.shape} does not match "
                f"{states.shape}")
        states[:] = initial_states

    for start in range(0, t, step):
        # the states entering the first block are zero unless carried in; None
        # skips the kernels' state checks and the first chunk's correction
        fresh = start == 0 and initial_states is None
        u = model.embedding[tok[:, start:start + step]]
        if kernel != "recurrent":
            f = stage_flops(batch, u.shape[1], spec.H, spec.N,
                            u.shape[1] if kernel == "dense" else q, carry_in=not fresh)
            flops.intra += spec.L * f.intra
            flops.propagate += spec.L * f.propagate
            flops.inter += spec.L * f.inter
        # u is the only name on a block's activations, so each layer's input
        # and the last block's output are freed as soon as they are replaced
        for li, layer in enumerate(model.layers):
            u, states[li] = layer_forward(layer, u, None if fresh else states[li], q,
                                          kernel=kernel, dense_limit=spec.dense_limit,
                                          fault=fault)
        if sink is not None:
            sink(start, u.copy())
    peak = max(_block_elements(spec, batch, n, q, kernel)
               for n in {min(step, t), (t - 1) % step + 1})
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


def _document_int(value, name: str) -> int:
    """An integer field read from a document; bools, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{name} must be an integer, got {value!r}")
    return int(value)


def import_state_snapshot(doc: dict) -> np.ndarray:
    """Inverse of export_state_snapshot, with structural validation.

    Dimensions must be non-negative integers and every state value a finite
    JSON number; anything else is a FormatError, never coerced.
    """
    try:
        version = doc["version"]
        dims = tuple(_document_int(doc[k], k) for k in ("layer_count", "b", "h", "n"))
        flat = doc["states"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed state snapshot: {exc}") from exc
    if version != SNAPSHOT_VERSION:
        raise FormatError(f"unsupported snapshot version {version}")
    if min(dims) < 0:
        raise FormatError(f"snapshot dimensions must be non-negative, got {dims}")
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
