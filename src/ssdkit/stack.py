"""Residual stacks of state-space layers and the two inference schedules.

Each layer RMS-normalizes its input, projects it to per-head coefficients
(a, B, C) and a scalar input channel per head, runs the state-space kernel,
and adds the per-head outputs back to the residual stream through a fixed
output projection.

Two schedules evaluate a stack:

  horizontal - layer at a time over the full sequence.  Activation footprint
               grows linearly with sequence length; exactly one layer's
               input and output buffers are live at once.
  vertical   - block of ``block_len`` positions at a time through all layers,
               carrying one state vector per layer across blocks.  Activation
               footprint is independent of sequence length once it exceeds
               the block length; for shorter sequences it falls back to the
               horizontal schedule (bitwise-identical result, no carried
               state buffer).

Both return an InferenceResult with the final hidden states, the memory
ledger, the flop counter, and the final per-layer states (resumable via the
snapshot helpers at the bottom of this module).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .chunked import DEFAULT_DENSE_LIMIT, chunked_forward, dense_dual
from .core import SsmCoefficients, _as_f64, recurrent_scan
from .errors import DimensionError, FormatError, ValidationError
from .instrumentation import ActivationArena, FlopCounter, MemoryLedger, UNTRACKED

__all__ = [
    "RMS_EPS",
    "KERNELS",
    "ModelSpec",
    "LayerParams",
    "StackedModel",
    "InferenceResult",
    "generate_coefficients",
    "layer_forward",
    "horizontal_infer",
    "vertical_infer",
    "export_state_snapshot",
    "import_state_snapshot",
    "save_state_snapshot",
    "load_state_snapshot",
]

RMS_EPS = 1e-8
KERNELS = ("chunked", "recurrent", "dense")

# Serialization order of LayerParams tensors; model_io relies on it.
LAYER_FIELDS = ("w_a", "b_a", "W_B", "W_C", "W_x", "W_out", "gamma")


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
    """

    w_a: np.ndarray    # (H, d)
    b_a: np.ndarray    # (H,)
    W_B: np.ndarray    # (H, N, d)
    W_C: np.ndarray    # (H, N, d)
    W_x: np.ndarray    # (H, d)
    W_out: np.ndarray  # (H, d)
    gamma: np.ndarray  # (d,)

    def __post_init__(self):
        for name in LAYER_FIELDS:
            setattr(self, name, _as_f64(getattr(self, name), name))
        h, d = self.w_a.shape
        n = self.W_B.shape[1]
        expect = {"w_a": (h, d), "b_a": (h,), "W_B": (h, n, d), "W_C": (h, n, d),
                  "W_x": (h, d), "W_out": (h, d), "gamma": (d,)}
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise DimensionError(f"LayerParams.{name} shape {got}, expected {shape}")

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

    hidden: final-layer hidden states; the full sequence for the horizontal
            schedule, the final block for the vertical one.
    states: final per-layer kernel states (L, batch, H, N), usable as
            initial_states of a continuation call.
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
    rms = np.sqrt(np.mean(u * u, axis=-1, keepdims=True) + RMS_EPS)
    return u / rms * params.gamma


def _project_coefficients(params: LayerParams, un: np.ndarray):
    logit = np.einsum("hd,btd->bth", params.w_a, un) + params.b_a
    a = np.exp(-np.logaddexp(0.0, logit))  # in (0, 1) for any finite logit
    Bmat = np.einsum("hnd,btd->bthn", params.W_B, un)
    Cmat = np.einsum("hnd,btd->bthn", params.W_C, un)
    return a, Bmat, Cmat


def generate_coefficients(params: LayerParams, u, *, arena: ActivationArena | None = None
                          ) -> SsmCoefficients:
    """Project a layer input (batch, length, d) to per-position coefficients.

    The input is RMS-normalized per position before projection.  Transition
    scalars are squashed to (0, 1) through exp(-softplus(logit)); a zero input
    with zero bias therefore yields a = 0.5.
    """
    u = _check_channels(params, u)
    arena = arena if arena is not None else UNTRACKED
    a, Bmat, Cmat = _project_coefficients(params, _normalize(params, u))
    for arr in (a, Bmat, Cmat):
        arena.track(arr)
    return SsmCoefficients(a, Bmat, Cmat, validate=False)


def layer_forward(params: LayerParams, u, state=None, chunk_size: int | None = None, *,
                  kernel: str = "chunked", dense_limit: int = DEFAULT_DENSE_LIMIT,
                  fault=None, counter: FlopCounter | None = None,
                  arena: ActivationArena | None = None):
    """One residual layer: v = u + head outputs mapped back to channels.

    Args:
        params:     layer parameters.
        u:          (batch, length, d) input channels.
        state:      optional (batch, H, N) kernel state entering the layer.
        chunk_size: chunk length for the chunked kernel.
        kernel:     "chunked", "recurrent", or "dense"; all three compute the
                    same map, differing in cost profile.

    Returns:
        (v, new_state): output channels charged to the arena (caller
        releases) and the kernel state at the end of the span.
    """
    if kernel not in KERNELS:
        raise ValidationError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    u = _check_channels(params, u)
    counter = counter if counter is not None else FlopCounter()
    arena = arena if arena is not None else UNTRACKED

    un = _normalize(params, u)
    arena.track(un)
    a, Bmat, Cmat = _project_coefficients(params, un)
    x = np.einsum("hd,btd->bth", params.W_x, un)
    for arr in (a, Bmat, Cmat, x):
        arena.track(arr)
    arena.release(un)
    del un
    coeffs = SsmCoefficients(a, Bmat, Cmat, validate=False)

    if kernel == "chunked":
        if chunk_size is None:
            raise ValidationError("chunk_size is required for the chunked kernel")
        y, hT = chunked_forward(coeffs, x, chunk_size, state,
                                fault=fault, counter=counter, arena=arena)
    elif kernel == "recurrent":
        y, hT = recurrent_scan(coeffs, x, state)
        arena.track(y)
    else:
        y, hT = dense_dual(coeffs, x, state, dense_limit=dense_limit,
                           counter=counter, arena=arena)

    v = arena.allocate(u.shape)
    np.add(u, np.einsum("bth,hd->btd", y, params.W_out), out=v)
    for arr in (y, x, Cmat, Bmat, a):
        arena.release(arr)
    return v, hT


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


def horizontal_infer(model: StackedModel, tokens, chunk_size: int | None = None, *,
                     kernel: str = "chunked", dense_limit: int | None = None,
                     fault=None) -> InferenceResult:
    """Layer-at-a-time inference over the full sequence.

    The previous layer's buffer is released only once the next layer's output
    is complete, so the ledger peak carries two full-sequence channel buffers
    plus one layer's working set, all linear in sequence length.
    """
    q = chunk_size if chunk_size is not None else model.spec.Q
    limit = dense_limit if dense_limit is not None else model.spec.dense_limit
    tok = _check_tokens(tokens, model.spec.vocab_size)
    ledger = MemoryLedger()
    arena = ActivationArena(ledger)
    counter = FlopCounter()

    u = arena.allocate((tok.shape[0], tok.shape[1], model.spec.d))
    u[:] = model.embedding[tok]
    states = np.empty((model.spec.L, tok.shape[0], model.spec.H, model.spec.N))
    for i, layer in enumerate(model.layers):
        v, hT = layer_forward(layer, u, None, q, kernel=kernel, dense_limit=limit,
                              fault=fault, counter=counter, arena=arena)
        states[i] = hT
        arena.release(u)
        u = v
    hidden = u.copy()
    arena.release(u)
    return InferenceResult(hidden, ledger, counter, states)


def vertical_infer(model: StackedModel, tokens, block_len: int | None = None,
                   chunk_size: int | None = None, *, initial_states=None,
                   sink=None, fault=None) -> InferenceResult:
    """Block-at-a-time inference through all layers, states carried across.

    Args:
        block_len:      positions per vertical block (default model.spec.V);
                        must be a multiple of the chunk size.
        initial_states: optional (L, batch, H, N) states from a previous call
                        on the preceding positions.
        sink:           optional callable(start, hidden_block) receiving every
                        block's final-layer output; storage at the sink is the
                        caller's, not counted by the ledger.

    Returns an InferenceResult whose hidden field covers the final block only.
    For sequences no longer than one block with no incoming states this
    delegates to horizontal_infer (bitwise-identical result, no carried state
    buffer) and feeds the sink, if any, with the single block.
    """
    v_len = block_len if block_len is not None else model.spec.V
    q = chunk_size if chunk_size is not None else model.spec.Q
    if v_len < 1:
        raise ValidationError(f"block length must be >= 1, got {v_len}")
    if v_len % q != 0:
        raise ValidationError(
            f"vertical block length {v_len} must be a multiple of chunk size {q}")
    tok = _check_tokens(tokens, model.spec.vocab_size)
    batch, t = tok.shape

    if t <= v_len and initial_states is None:
        result = horizontal_infer(model, tok, q, fault=fault)
        if sink is not None:
            sink(0, result.hidden.copy())
        return result

    spec = model.spec
    ledger = MemoryLedger()
    arena = ActivationArena(ledger)
    counter = FlopCounter()

    states = arena.allocate((spec.L, batch, spec.H, spec.N), zero=True)
    ledger.per_layer_state_elements = states.size
    if initial_states is not None:
        initial_states = _as_f64(initial_states, "initial_states")
        if initial_states.shape != states.shape:
            raise DimensionError(
                f"initial_states shape {initial_states.shape} does not match "
                f"{states.shape}")
        states[:] = initial_states

    hidden = None
    num_blocks = -(-t // v_len)
    for bi in range(num_blocks):
        start, stop = bi * v_len, min(t, (bi + 1) * v_len)
        u = arena.allocate((batch, stop - start, spec.d))
        u[:] = model.embedding[tok[:, start:stop]]
        for li, layer in enumerate(model.layers):
            v, hT = layer_forward(layer, u, states[li], q, fault=fault,
                                  counter=counter, arena=arena)
            states[li] = hT
            arena.release(u)
            u = v
        if sink is not None:
            sink(start, u.copy())
        if bi == num_blocks - 1:
            hidden = u.copy()
        arena.release(u)

    final_states = states.copy()
    arena.release(states)
    return InferenceResult(hidden, ledger, counter, final_states)


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


def save_state_snapshot(path, states) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(export_state_snapshot(states), fh)


def load_state_snapshot(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"state snapshot is not valid JSON: {exc}") from exc
    return import_state_snapshot(doc)
