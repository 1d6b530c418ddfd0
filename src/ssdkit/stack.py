"""Residual stacks of state-space layers and the inference schedule.

Each layer RMS-normalizes its input, projects it to per-head coefficients
(a, B, C) and a scalar input channel per head, runs the state-space kernel,
and adds the per-head outputs back to the residual stream through a fixed
output projection.

One block loop, ``infer``, evaluates a stack: it runs each block of
``block_len`` positions through all layers, carrying one state vector per
layer across blocks.  The two schedules are two block lengths:

  horizontal - one block spanning the whole sequence, i.e. layer at a time.
               Activation footprint grows linearly with sequence length, by
               one residual stream (and its RMS vector).
  vertical   - blocks of ``V`` positions.  Activation footprint is
               independent of sequence length once it exceeds the block
               length; a sequence within one block is the horizontal case.

One tile rule bounds a layer call: ``layer_forward`` runs it in tiles of
whole chunks, and ``infer``, which owns each block's residual stream, has
every layer write its output over it, so a block holds one stream plus one
tile's buffers.

A layer call checks its input and resolves its chunk to one integer at its
entry (``_layer_input``): the chunk size given, or one chunk spanning the
call when None and under the dense kernel, which is therefore the chunked
kernel at Q = T bit for bit.  One rule handles a ragged length (not a
multiple of Q, such as every embedding query): ``_project`` pads it with
zero rows in the normalized buffer each layer makes anyway, its gates 1
there, and its callers trim once.  No product or kernel call sees a ragged
length, and a ragged block gives the bits of the same rows of any longer one.

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
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from .chunked import chunked_forward, dense_dual, stage_flops, workspace_elements
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

# layer_forward runs tiles of whole chunks whose stage-1 mask holds at most
# this many elements per batch row (384 KB), so no layer buffer but the
# residual stream spans a long call (a whole-call mask, 4 MB per row group at
# 8 x 4,096, page-faulted in again on every call).  Interleaved at 8 x 4,096
# on the benchmark model (H = 2, Q = 16, two row groups, BLAS on one thread)
# against layers holding whole-call buffers (13.7 MB traced peak): 32,768
# took 0.99x the time at 8.5 MB, 49,152 0.96x at 10.5 MB and 65,536 0.91x at
# 12.4 MB.  Fewer tiles make fewer NumPy calls, each a point where the row
# groups' threads trade the interpreter lock.
_MASK_ELEMENTS_PER_ROW = 49152

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
    """

    seed: int = 42
    L: int = 4
    d: int = 16
    H: int = 2
    N: int = 4
    vocab_size: int = 256
    Q: int = 16
    V: int = 32

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
        if not isinstance(self.spec, ModelSpec):
            raise ValidationError(f"spec must be a ModelSpec, got {type(self.spec).__name__}")
        self.embedding = _as_f64(self.embedding, "embedding",
                                 (self.spec.vocab_size, self.spec.d))
        if not isinstance(self.layers, (list, tuple)) or not all(
                isinstance(layer, LayerParams) for layer in self.layers):
            raise ValidationError("layers must be a list of LayerParams")
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


def _model_spec(model) -> ModelSpec:
    """The spec of model, checked once per call to be a StackedModel."""
    if not isinstance(model, StackedModel):
        raise ValidationError(f"model must be a StackedModel, got {type(model).__name__}")
    return model.spec


def _layer_input(params: LayerParams, u, chunk_size) -> tuple[np.ndarray, int]:
    """u checked as a layer input (batch, length, d), and the chunk of the
    call's products: chunk_size, or the call's length when it is None."""
    u = _as_f64(u, "u")
    if u.ndim != 3 or u.shape[2] != params.d:
        raise DimensionError(
            f"layer input shape {u.shape} does not match (batch, length, {params.d})")
    return u, u.shape[1] if chunk_size is None else _as_int(chunk_size, "chunk size", 1)


def _chunk_matmul(x: np.ndarray, w: np.ndarray, q: int) -> np.ndarray:
    """x[:, i] @ w for every position i, one batched product per chunk.

    x is (batch, length, k), whole chunks of q positions: one np.matmul over
    the (batch, chunks, q, k) view.  A single product over all rows is not
    used because it is not row-slice invariant: the bits of a row can depend
    on how many rows share the call.  Fixing every product's shape to its
    chunk gives a position the same bits in any call whose chunks start where
    its own do.
    """
    b, t, k = x.shape
    return np.matmul(x.reshape(b, -1, q, k), w).reshape(b, t, -1)


def generate_coefficients(params: LayerParams, u, chunk_size: int | None = None):
    """Project a layer input (batch, length, d) to per-position coefficients.

    The input is RMS-normalized per position before projection.  Transition
    scalars are squashed to (0, 1) as 1 / (1 + exp(logit)), which is
    exp(-softplus(logit)); a zero input with zero bias therefore yields
    a = 0.5, and logits beyond the float range saturate to exactly 0 or 1.

    The projections are one BLAS product per chunk of ``chunk_size``
    positions (one chunk spanning the call when None, see ``_layer_input``):
    one with w_gate for the gate logits and one with the stacked W_in for B,
    C and x, both with gamma folded in.  A ragged length is padded to whole
    chunks, so these are the coefficients ``layer_forward``'s kernel reads,
    and any prefix or chunk-aligned slice gives the whole call's rows exactly.

    Returns (coeffs, x): the SsmCoefficients and the (batch, length, H) input
    channel, views of the padded buffers; B, C and x share one.
    """
    u, q = _layer_input(params, u, chunk_size)
    t = u.shape[1]
    coeffs, x = _project(params, u, q)
    return coeffs.slice_time(0, t), x[:, :t]


@np.errstate(over="ignore")  # as a decorator, half the cost of a with block per call
def _exp_in_place(a: np.ndarray) -> None:
    np.exp(a, out=a)


def _tile_chunks(h: int, q: int) -> int:
    """Chunks per layer tile: the most whose stage-1 mask fits the per-row
    budget, at least one."""
    return max(1, _MASK_ELEMENTS_PER_ROW // (h * q * q))


def _rms(u: np.ndarray) -> np.ndarray:
    """The RMS of each position of u (batch, t, d), as (batch, t)."""
    rms = np.einsum("btd,btd->bt", u, u)
    rms /= u.shape[2]
    rms += RMS_EPS
    np.sqrt(rms, out=rms)
    return rms


def _project(params: LayerParams, u: np.ndarray, q: int, rms=None, bias=None):
    """Coefficients of the checked u (batch, t, d), padded to whole chunks of
    q: rows from t on have gates 1 and B = C = x = 0, so they leave the state
    as it is and add zeros.  A tile of a longer call passes the call's RMS
    rows and gate-bias tile (see ``layer_forward``); otherwise both are made
    here and the RMS is freed before the products."""
    b, t, d = u.shape
    h, n = params.heads, params.state_dim
    rows = -(-t // q) * q
    if rms is None:
        rms = _rms(u)
    if rows == t:
        un = u / rms[..., None]
    else:
        un = np.zeros((b, rows, d))
        np.divide(u, rms[..., None], out=un[:, :t])
    del rms  # not kept through the products
    a = _chunk_matmul(un, params.w_gate.T, q)
    proj = _chunk_matmul(un, params.W_in.T, q)
    # a = 1 / (1 + e^(logit)) in place; overflow to inf gives exactly 0.  b_a
    # is added as a (rows, H) row-tiled operand: broadcast as (H,), the add
    # runs one H-long inner loop per position
    a += params.b_a[None].repeat(rows, 0) if bias is None else bias[:rows]
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


def _tile_forward(params: LayerParams, u: np.ndarray, q: int, state, kernel: str, fault,
                  out, rms=None, bias=None):
    """One tile of a layer call: project u, run the kernel from state, and
    write u plus the output projection into out (a new buffer when None).
    Returns (v, the state at the end of the tile)."""
    coeffs, x = _project(params, u, q, rms, bias)
    if kernel == "chunked":
        y, hT = chunked_forward(coeffs, x, q, state, fault=fault)
    elif kernel == "recurrent":
        y, hT = recurrent_scan(coeffs, x, state)
    else:
        y, hT = dense_dual(coeffs, x, state)
    del coeffs, x  # a, B, C and x are dead: free them before the output is made
    p = _chunk_matmul(y, params.W_out, q)[:, :u.shape[1]]
    return np.add(p, u, out=p if out is None else out), hT


def layer_forward(params: LayerParams, u, state=None, chunk_size: int | None = None, *,
                  kernel: str = "chunked", fault=None, overwrite_input: bool = False):
    """One residual layer: v = u + head outputs mapped back to channels.

    Args:
        params:     layer parameters.
        u:          (batch, length, d) input channels.
        state:      optional (batch, H, N) kernel state entering the layer.
        chunk_size: chunk length of the kernel and of the input and output
                    projections, one product per chunk; required by the
                    chunked kernel.  One chunk spans the call when it is None
                    and under the dense kernel, as chunk_size = length.
        kernel:     "chunked", "recurrent", or "dense"; all three compute the
                    same map, differing in cost profile.
        fault:      one of ``chunked.FAULT_MODES``, for the chunked kernel only.
        overwrite_input: write v over u and return u's own buffer, which
                    must be writeable; v is a new buffer when False.

    The call runs in tiles of whole chunks whose stage-1 mask fits
    ``_MASK_ELEMENTS_PER_ROW`` per batch row (at least one chunk; a dense
    call is one chunk).  Each tile is projected, run through the kernel from
    the state the previous tile left, projected back and added to its input
    rows, so beside u and v a call holds its RMS vector and one tile's
    buffers.  A tile's output may overwrite its input because no later tile
    reads it.  A one-tile call makes the buffers of an untiled one, and
    tiling changes no bit.

    A ragged length runs padded to whole chunks by ``_project``, so every
    product and the kernel call are chunk-aligned, and v is the real rows of
    the padded output: those of any longer call over the same first
    positions, bit for bit.

    Returns:
        (v, new_state): output channels and the kernel state at the end of
        the span.
    """
    if kernel not in KERNELS:
        raise ValidationError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    if fault is not None and kernel != "chunked":
        raise ValidationError(f"fault {fault!r} applies to the chunked kernel only, "
                              f"not {kernel!r}")
    if not isinstance(overwrite_input, bool):
        raise ValidationError(f"overwrite_input must be a bool, got {overwrite_input!r}")
    u, q = _layer_input(params, u, chunk_size)
    if kernel == "chunked" and chunk_size is None:
        raise ValidationError("chunk_size is required for the chunked kernel")
    if overwrite_input and not u.flags.writeable:
        raise ValidationError("overwrite_input needs a writeable u")
    t = u.shape[1]
    if kernel == "dense":
        q = t  # the products' one chunk spans the call, as the kernel's does
    span = _tile_chunks(params.heads, q) * q
    if span >= t:
        return _tile_forward(params, u, q, state, kernel, fault, u if overwrite_input else None)
    # per call, not per tile: the RMS of every position and the gate bias
    # rows of a whole tile, sliced by each tile
    rms = _rms(u)
    bias = params.b_a[None].repeat(span, 0)
    v = u if overwrite_input else np.empty_like(u)
    for lo in range(0, t, span):
        tile = slice(lo, lo + span)
        _, state = _tile_forward(params, u[:, tile], q, state, kernel, fault, v[:, tile],
                                 rms[:, tile], bias)
    return v, state


def _block_elements(spec: ModelSpec, batch: int, t: int, q: int, kernel: str) -> int:
    """Peak float64 elements one block of t positions holds in a layer call.

    The residual stream u, which each tile's output overwrites, is live
    throughout beside one tile of s positions, whose buffers live in order:
    the normalized un until a, B, C and x exist; then the kernel's
    workspace (for the recurrent kernel its output y alone); then y and the
    output projection.  Several tiles also hold the call's RMS vector, the
    gate-bias tile and the state carried between them.  u and the RMS
    vector span the t real positions, a tile whole chunks of q, the block's
    resolved chunk (t under the dense kernel, see ``_block_forms``).
    """
    rows = -(-t // q) * q
    s = min(rows, _tile_chunks(spec.H, q) * q)
    P = batch * s * spec.d  # un, the output projection
    E = batch * s * spec.H  # a, x, y
    F = E * spec.N          # B, C
    W = E if kernel == "recurrent" else workspace_elements(batch, s, spec.H, spec.N, q)
    tiles = 0 if s == rows else batch * t + s * spec.H + batch * spec.H * spec.N
    return batch * t * spec.d + tiles + max(P + 2 * E + 2 * F, 2 * E + 2 * F + W, E + P)


@functools.lru_cache(maxsize=256)
def _block_forms(spec: ModelSpec, batch: int, n: int, q: int, kernel: str, fresh: bool,
                 tile_budget: int) -> tuple[tuple[int, int, int], int]:
    """A block's per-stage flops over the L layers and its footprint, once per
    block shape; the footprint also reads the layer tile budget, so that is
    part of the key.  Tiles leave the flops those of one kernel call over
    the block: a later tile's first-chunk correction is the whole call's."""
    if kernel == "dense":
        q = n  # one chunk spans a dense layer call (see layer_forward)
    elements = _block_elements(spec, batch, n, q, kernel)
    if kernel == "recurrent":
        return (0, 0, 0), elements
    f = stage_flops(batch, n, spec.H, spec.N, q, carry_in=not fresh)
    return (spec.L * f.intra, spec.L * f.propagate, spec.L * f.inter), elements


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
    if arr.dtype.kind not in "iu":
        raise ValidationError(f"token ids must be integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= vocab_size:
        raise ValidationError(
            f"token ids must lie in [0, {vocab_size}), got range "
            f"[{arr.min()}, {arr.max()}]")
    return arr


def _block_forward(model: StackedModel, u: np.ndarray, states: np.ndarray, fresh: bool,
                   q: int, kernel: str, fault) -> None:
    """One block's residual stream u (rows, n, d) through every layer, in
    place: the block owns it, so every layer writes its output over it.
    Updates states (L, rows, H, N)."""
    for li, layer in enumerate(model.layers):
        _, states[li] = layer_forward(layer, u, None if fresh else states[li], q,
                                      kernel=kernel, fault=fault, overwrite_input=True)


def _split_forward(groups: int, model: StackedModel, u: np.ndarray, states: np.ndarray,
                   *args) -> None:
    """``_block_forward`` on row groups of u at once, each on its own rows;
    all finish before the first group's error, in row order, is raised."""
    batch = u.shape[0]
    pool = _row_pool(os.getpid())
    futures = [pool.submit(_block_forward, model, u[lo:hi], states[:, lo:hi], *args)
               for lo, hi in ((i * batch // groups, (i + 1) * batch // groups)
                              for i in range(groups))]
    for future in futures:
        future.exception()  # waits without raising
    for future in futures:
        future.result()


def infer(model: StackedModel, tokens, block_len: int | None = None,
          chunk_size: int | None = None, *, kernel: str = "chunked",
          initial_states=None, sink=None, fault=None) -> InferenceResult:
    """Block-at-a-time inference through all layers, states carried across.

    Args:
        block_len:      positions per block, a multiple of the chunk size;
                        None runs one block spanning the whole sequence.
        chunk_size:     chunk length (default model.spec.Q).
        kernel:         "chunked", "recurrent", or "dense" (see layer_forward);
                        dense refuses blocks over chunked.DEFAULT_DENSE_LIMIT.
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
    // 8192) contiguous row groups, at once on a thread pool when g >= 2,
    each writing over its own rows of the block's one residual stream.
    Rows never interact and every operation works per row, so the results
    keep their bits; the ledger, linear in the batch, is unchanged.
    """
    spec = _model_spec(model)
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

    peak = 0
    for start in range(0, t, step):
        # the states entering the first block are zero unless carried in;
        # None skips the kernels' state checks and the first chunk's correction
        fresh = start == 0 and initial_states is None
        n = min(step, t - start)
        (intra, propagate, inter), elements = _block_forms(
            spec, batch, n, q, kernel, fresh, _MASK_ELEMENTS_PER_ROW)
        flops.intra += intra
        flops.propagate += propagate
        flops.inter += inter
        peak = max(peak, elements)
        # drop the previous block's output first: kept alive through this
        # block's layers, it would put the traced peak above the ledger's
        u = None
        groups = min(_CPUS, batch, batch * n // _MIN_GROUP_POSITIONS)
        u = model.embedding[tok[:, start:start + n]]
        if groups < 2:
            _block_forward(model, u, states, fresh, q, kernel, fault)
        else:
            _split_forward(groups, model, u, states, fresh, q, kernel, fault)
        if sink is not None:
            sink(start, u.copy())
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
    return infer(model, tokens, block_len if block_len is not None else _model_spec(model).V,
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

    Dimensions must be positive integers and every state value a finite JSON
    number; anything else is a FormatError, never coerced.
    """
    try:
        version = _as_int(doc["version"], "snapshot version", error=FormatError)
        dims = tuple(_as_int(doc[k], k, 1, error=FormatError)
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
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"state snapshot is not valid JSON: {exc}") from exc
    return import_state_snapshot(doc)
