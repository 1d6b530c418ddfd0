"""Block-decomposed evaluation of the state-space kernel.

The sequence is partitioned into chunks of ``chunk_size`` positions, and the
chunks into tiles.  Every stage runs once per tile over all its chunks at
once, on chunk-major arrays (batch, chunks, heads, chunk_size, ...):

  1. intra   - the x-weighted decay mask M[i, j] = L[i, j] x_j of every
               chunk, times B, gives the local state after each position
               (Z = M @ B); C reads each chunk's local output out of it
               (C . Z), and B^T @ M[last row] is the state contribution of
               the chunk's inputs at its right boundary;
  2. propagate - boundary states are carried across chunks by one
               multiply-add per chunk (the only sequential stage), on a
               chunk-first buffer so each step is a contiguous block;
  3. correct - each chunk's output is completed by reading out the state
               carried in from everything before it (one batched C @ state),
               weighted by the decay from the previous boundary to each
               position.

The mask is built by the same division-free running product as the kernel
matrix in ``ssdkit.core`` (row i = a_i * row i-1), run directly on the
x-weighted rows (diagonal x_i instead of 1); neither C @ B^T nor an
unweighted decay block is ever formed.  Two builds make the same products,
so the same bits: few short masks (Q >= 8, at most min(16, 256 / Q)) take
five whole-array operations, ending in one np.multiply.accumulate down the
rows; any others take the row loop, one contiguous row at a time.

One tiling rule bounds a call: ``chunked_forward`` runs its chunks in tiles
whose mask fits ``_MASK_ELEMENTS_PER_ROW`` elements per batch row (at least
one chunk), carries each tile's final state into the next as its h0 and
writes each tile's output into one time-major y.  Every other buffer spans
one tile, so the workspace stops growing with length but for y.  A one-tile
call (every vertical block up to V = 1,024 at H = 2, Q = 16) takes the same
loop once: it lays out the call's own arrays rather than tile slices, hands
stage 3 whole arrays when a state is passed in, and returns y as one copy of
its output's time-major view, so it allocates what an untiled call would.
Tiling changes no bit.

Stage 3 reads out the first chunk only when a state is passed in, zero or
not, so a call's flops are a closed form of its shape and that one bit
(``stage_flops``), as its workspace is (``workspace_elements``).  Stage 3
adds each correction into the stage-1 output buffer in place.

``chunked_forward`` returns only (y, hT).  Each stage is a public function
of the chunk-major arrays that ``chunk_major`` lays out, so a harness that
inspects one stage (``ssdkit.bench``'s equivalence suite) calls the stages
itself.

A ragged tail (length not a multiple of chunk_size) is padded to a full
chunk with a = 1 and B = C = x = 0: padded positions add exact zeros and
multiply decay products by exactly one, so outputs and the final state are
those of the unpadded sequence.  Only direct callers reach this path:
``stack.layer_forward`` pads a ragged call's rows the same way before its
projections, so every chunked kernel call ``infer`` makes is chunk-aligned
and lays its inputs out as zero-copy views.

``dense_dual`` is the single-block special case (chunk_size = sequence
length): the same code path, so the two agree bitwise, with a capacity guard
because it materializes a (length, length) block per slice.

Fault injection: the four ``FAULT_MODES`` each disable one algebraic
ingredient (intra-block decay mask, boundary-row weights, carry transition
factor, cross-chunk correction).  They exist so equivalence harnesses can
prove each ingredient is load-bearing.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import SsmCoefficients, _as_f64, _as_int, _check_inputs, _real_array
from .errors import CapacityError, DimensionError, ValidationError
from .instrumentation import FlopCounter

__all__ = [
    "DEFAULT_DENSE_LIMIT",
    "FAULT_MODES",
    "chunk_major",
    "intra_chunk",
    "propagate_states",
    "inter_chunk_correction",
    "chunked_forward",
    "workspace_elements",
    "stage_flops",
    "dense_dual",
]

DEFAULT_DENSE_LIMIT = 4096

# chunked_forward runs tiles of chunks whose stage-1 mask holds at most this
# many elements per batch row (256 KB).  A mask spanning a long call (4 MB
# per row group at 8 x 4,096) was handed back to the kernel and page-faulted
# in again on every call.  Of 16,384, 32,768 and 65,536 on the benchmark
# model (H = 2, Q = 16), 65,536 still page-faulted at 16 x 4,096 and 16,384
# was the slowest at 1 x 65,536.
_MASK_ELEMENTS_PER_ROW = 32768

# `slices` (batch, chunk, head) masks of size Q take the whole-array build
# when Q >= 8 and slices <= min(16, 256 // Q), else the row loop (see
# intra_chunk): the first runs one inner loop per mask column, so its
# cost grows with slices * Q; the second makes 2(Q - 1) NumPy calls.  Timed
# on a 2-CPU host over Q 4-256 and 1-512 slices, the rule never picked the
# slower build (whole array vs row loop: Q = 16 at 8 slices 30 vs 64 us, at
# 32 slices 100 vs 79 us; Q = 256 at 1 slice 0.40 vs 0.72 ms, at 8 slices
# 5.5 vs 1.4 ms); at Q = 4 the two were within noise of each other.
_SHORT_MASK_MIN_Q = 8
_SHORT_MASK_SLICES = 16
_SHORT_MASK_ELEMENTS = 256

# Each mode omits one ingredient of the decomposition.
FAULT_INTRA_MASK = "intra-output-mask"
FAULT_INTRA_WEIGHTS = "intra-state-weights"
FAULT_TRANSITION = "state-transition"
FAULT_CORRECTION = "output-correction"
FAULT_MODES = (FAULT_INTRA_MASK, FAULT_INTRA_WEIGHTS, FAULT_TRANSITION, FAULT_CORRECTION)


def _check_fault(fault):
    if fault is not None and fault not in FAULT_MODES:
        raise ValidationError(f"unknown fault mode {fault!r}; expected one of {FAULT_MODES}")


def _partition(t: int, chunk_size: int) -> tuple[int, int, int, int]:
    """t and chunk_size as ints, the chunk count and the last chunk's length."""
    t = _as_int(t, "sequence length", 1)
    chunk_size = _as_int(chunk_size, "chunk size", 1)
    k = -(-t // chunk_size)
    return t, chunk_size, k, t - (k - 1) * chunk_size


def chunk_major(coeffs: SsmCoefficients, x, chunk_size: int):
    """Lay coefficients and inputs out chunk-major for the stage functions.

    Returns (a, Bmat, Cmat, x) with a and x (batch, chunks, heads, Q)
    and Bmat/Cmat (batch, chunks, heads, Q, state).  When the length is a
    multiple of Q these are zero-copy views of the inputs; otherwise they are
    copies with the tail padded by a = 1 and B = C = x = 0.
    """
    x = _check_inputs(coeffs, x)
    _, q, _, _ = _partition(coeffs.length, chunk_size)
    return _chunk_major(coeffs.a, coeffs.Bmat, coeffs.Cmat, x, q)


def _chunk_major(a, Bm, Cm, x, q: int):
    """chunk_major of checked arrays: a, x (b, t, h) and Bm, Cm (b, t, h, n)."""
    b, t, h, n = Bm.shape
    k = -(-t // q)
    pad = k * q - t
    if pad:
        a = np.concatenate([a, np.ones((b, pad, h))], axis=1)
        Bm = np.concatenate([Bm, np.zeros((b, pad, h, n))], axis=1)
        Cm = np.concatenate([Cm, np.zeros((b, pad, h, n))], axis=1)
        x = np.concatenate([x, np.zeros((b, pad, h))], axis=1)
    return (a.reshape(b, k, q, h).transpose(0, 1, 3, 2),
            Bm.reshape(b, k, q, h, n).transpose(0, 1, 3, 2, 4),
            Cm.reshape(b, k, q, h, n).transpose(0, 1, 3, 2, 4),
            x.reshape(b, k, q, h).transpose(0, 1, 3, 2))


def _time_major(arr: np.ndarray, out: np.ndarray) -> None:
    """Inverse of chunk_major: arr (b, k, h, Q) into out (b, t, h), tail dropped."""
    b, _, h, q = arr.shape
    whole, tail = divmod(out.shape[1], q)
    out[:, :whole * q].reshape(b, whole, q, h)[:] = arr[:, :whole].swapaxes(-1, -2)
    if tail:
        out[:, whole * q:] = arr[:, whole, :, :tail].swapaxes(-1, -2)


def _tile_chunks(h: int, chunk_size: int) -> int:
    """Chunks per tile: the most whose stage-1 mask fits the per-row budget."""
    return max(1, _MASK_ELEMENTS_PER_ROW // (h * chunk_size * chunk_size))


def _short_build(q: int, slices: int) -> bool:
    """Whether ``slices`` masks of size q take the whole-array build."""
    return q >= _SHORT_MASK_MIN_Q and slices <= min(_SHORT_MASK_SLICES,
                                                      _SHORT_MASK_ELEMENTS // q)


@functools.lru_cache(maxsize=None)  # one entry per Q of a short build, Q <= 256
def _triangles(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (Q, 1, 1, 1, Q) masks of the entries on and above, and
    strictly above, the diagonal."""
    on = ~np.tri(q, k=-1, dtype=bool)[:, None, None, None, :]
    above = ~np.tri(q, dtype=bool)[:, None, None, None, :]
    on.flags.writeable = above.flags.writeable = False
    return on, above


def intra_chunk(a, Bm, Cm, x, *, fault=None):
    """Stage 1 for every chunk: chunk-local outputs and boundary-state inputs.

    Builds the x-weighted decay mask M (batch, chunks, heads, Q, Q), held
    row-major as (Q, batch, chunks, heads, Q), and the local states
    Z = M @ B (batch, chunks, heads, Q, state).  C @ B^T is never formed.
    M[i, ..., j] = L[i, j] x_j: x_j on the diagonal, ((x_j a_{j+1}) a_{j+2})
    ... a_i below it and +0.0 above it, built in the mask buffer alone by
    either build (``_short_build``), with the same bits.  The buffers span
    every chunk given: the workspace bound is chunked_forward's, which
    passes one tile at a time (see ``workspace_elements``).

    Args:
        a, x:   (batch, chunks, heads, Q) chunk-major transitions and inputs.
        Bm, Cm: (batch, chunks, heads, Q, state) chunk-major input/readout maps.

    Returns:
        y_intra: (batch, chunks, heads, Q) output from each chunk's own inputs
                 with zero incoming state.
        b_intra: (batch, chunks, heads, state) contribution of each chunk's
                 inputs to the state at its right boundary; each input is
                 weighted by the decay from its position to that boundary.
    """
    _check_fault(fault)
    b, k, h, q = x.shape
    M = np.empty((q, b, k, h, q))
    if _short_build(q, b * k * h):
        # each column j holds x_j in row 0, 1.0 down to the diagonal and a_i
        # below it; the running product down the rows then carries x_j to
        # row j unchanged (x 1.0 is exact) and decays it from there on
        on, above = _triangles(q)
        M[...] = a.transpose(3, 0, 1, 2)[..., None]
        np.copyto(M, 1.0, where=on)
        M[0] = x
        np.multiply.accumulate(M, axis=0, out=M)
        np.copyto(M, 0.0, where=above)
    else:
        # row 0 is zeroed but for x_0, and every later row is a multiple of
        # the one before, so the entries above the diagonal stay zero
        M[0] = 0.0
        M[0, ..., 0] = x[..., 0]
        for i in range(1, q):
            np.multiply(M[i - 1], a[..., i, None], out=M[i])
            M[i, ..., i] = x[..., i]
    # decay weights dropped from the output mask only
    mask = np.tri(q)[:, None, None, None, :] * x if fault == FAULT_INTRA_MASK else M
    # local state after each position; np.moveaxis in place of transpose made
    # the vertical schedule's tracemalloc peak grow with length (about 100
    # bytes retained per call)
    Z = np.matmul(mask.transpose(1, 2, 3, 0, 4), Bm)
    # the last row is the decay from each position to the right boundary, times x
    w = x if fault == FAULT_INTRA_WEIGHTS else M[-1]
    b_intra = np.matmul(Bm.swapaxes(-1, -2), w[..., None])[..., 0]
    del M, mask, w  # the mask is freed before y_intra is made

    y_intra = np.einsum("...n,...n->...", Cm, Z)
    return y_intra, b_intra


def propagate_states(b_intra: np.ndarray, transitions: np.ndarray, b0: np.ndarray,
                     *, fault=None) -> np.ndarray:
    """Stage 2: carry boundary states across chunks, one multiply-add each.

    Args:
        b_intra:     (batch, num_chunks, heads, state) per-chunk inputs' state.
        transitions: (batch, num_chunks, heads) decay across each chunk's span.
        b0:          (batch, heads, state) state entering the first chunk.

    Returns:
        (batch, num_chunks + 1, heads, state), a view of a chunk-first
        buffer; index 0 is b0, index c is the state at chunk c's left
        boundary for c >= 1.
    """
    _check_fault(fault)
    b_intra = _real_array(b_intra, "b_intra")
    if b_intra.ndim != 4:
        raise DimensionError(f"b_intra must be (b,k,h,n), got {b_intra.shape}")
    b, k, h, n = b_intra.shape
    transitions = _real_array(transitions, "transitions", (b, k, h))
    b0 = _real_array(b0, "b0", (b, h, n))

    # chunk-first, so each step works on one contiguous (b, h, n) block; the
    # blocks are filled with their chunk's transition at once, so the loop
    # multiplies in place without a broadcast (1 * s is s exactly)
    states = np.empty((k + 1, b, h, n))
    states[0] = b0
    states[1:] = 1.0 if fault == FAULT_TRANSITION else transitions.swapaxes(0, 1)[..., None]
    for s_c, s_next, b_c in zip(states[:-1], states[1:], b_intra.swapaxes(0, 1)):
        s_next *= s_c
        s_next += b_c
    return states.swapaxes(0, 1)


def inter_chunk_correction(entry, Cm, b_prev, *, fault=None) -> np.ndarray:
    """Stage 3 for every chunk: read out the state carried in from earlier chunks.

    Args:
        entry:  (batch, chunks, heads, Q) running product of each chunk's
                transitions, np.cumprod(a, axis=-1): the decay from the
                previous chunk's last position through each local position.
        Cm:     (batch, chunks, heads, Q, state) chunk-major readout maps.
        b_prev: (batch, chunks, heads, state) state entering each chunk.
    """
    _check_fault(fault)
    b, k, h, q = entry.shape
    n = Cm.shape[-1]
    b_prev = _real_array(b_prev, "b_prev", (b, k, h, n))
    if fault == FAULT_CORRECTION:
        return np.zeros((b, k, h, q), dtype=np.float64)
    return entry * (Cm @ b_prev[..., None])[..., 0]


def chunked_forward(coeffs: SsmCoefficients, x, chunk_size: int, h0=None, *, fault=None):
    """Full block-decomposed forward pass.

    Args:
        coeffs:     per-position coefficients.
        x:          (batch, length, heads) input channels.
        chunk_size: chunk length; a ragged final chunk is padded (see module).
        h0:         optional (batch, heads, state) initial state; when given,
                    stage 3 reads it out through the first chunk.

    Returns:
        (y, hT) matching recurrent_scan.  The float64 elements held beyond
        the inputs, y included, peak at workspace_elements(...) of the shape.
    """
    _check_fault(fault)
    x = _check_inputs(coeffs, x)
    b, t, h = x.shape
    n = coeffs.state_dim
    _, q, _, _ = _partition(t, chunk_size)
    state = None if h0 is None else _as_f64(h0, "h0", (b, h, n))
    span = _tile_chunks(h, q) * q
    one = span >= t  # one tile: its inputs are the call's, and its output is y
    inputs = (coeffs.a, coeffs.Bmat, coeffs.Cmat, x)
    y = None
    for lo in range(0, t, span):
        tile = slice(lo, lo + span)
        a, Bm, Cm, xs = _chunk_major(*(inputs if one else [v[:, tile] for v in inputs]), q)
        k = xs.shape[1]
        y_c, b_intra = intra_chunk(a, Bm, Cm, xs, fault=fault)
        entry = np.empty(xs.shape)
        np.multiply.accumulate(a, axis=-1, out=entry)  # np.cumprod, without its wrapper
        b0 = np.zeros((b, h, n)) if state is None else state
        states = propagate_states(b_intra, entry[..., -1], b0, fault=fault)
        if state is not None:
            y_c += inter_chunk_correction(entry, Cm, states[:, :k], fault=fault)
        elif k > 1:
            # without a state passed in, the state entering the call's first
            # chunk is zero, and so is its correction: stage 3 skips that chunk
            y_c[:, 1:] += inter_chunk_correction(entry[:, 1:], Cm[:, 1:], states[:, 1:k],
                                                 fault=fault)
        state = states[:, k].copy()
        del b_intra, entry, b0, states  # not kept through the next tile
        if one:  # one copy of the time-major view, the padded tail dropped
            y = y_c.swapaxes(-1, -2).reshape(b, -1, h)[:, :t]
        else:
            if y is None:  # made once the first tile is done, so that tile's peak excludes it
                y = np.empty((b, t, h))
            _time_major(y_c, y[:, tile])
        del y_c
    return y, state


def workspace_elements(b: int, t: int, h: int, n: int, chunk_size: int) -> int:
    """Peak float64 elements chunked_forward holds beyond its inputs, y included.

    Batch b, length t, heads h, state size n; dense_dual is chunk_size = t.
    A tile peaks in the stage with the most live buffers, plus the padded
    copies of a, B, C and x if it is ragged.  A one-tile call holds that
    alone (its y, made at the end, is smaller); every later tile runs beside
    y and the state carried in.  Temporaries inside one expression are not
    counted.
    """
    b, h, n = _as_int(b, "batch"), _as_int(h, "heads"), _as_int(n, "state size")
    t, q, k, last = _partition(t, chunk_size)
    s = min(k, _tile_chunks(h, q))
    g = b * h * n  # one state

    def tile(m, ragged):  # a tile of m chunks
        c = b * m * h * q  # a chunk-major (b, m, h, Q) buffer
        p = b * m * h * n  # one state per chunk
        pad = 2 * c * (1 + n) if ragged else 0
        return pad + max(c * q + c * n + p,    # stage 1: mask, Z, b_intra
                         2 * c + 2 * p + g,    # y_intra, entry, b_intra, states
                         3 * c + p + g)        # stage 3: y_intra, entry, correction, states

    if k == s:
        return tile(k, last < q)
    later = max(tile(min(s, k - s), False), tile(k - (k - 1) // s * s, last < q))
    return max(tile(s, False), b * t * h + g + later)


def stage_flops(b: int, t: int, h: int, n: int, chunk_size: int, *,
                carry_in: bool) -> FlopCounter:
    """Per-stage flops of one chunked_forward call; dense_dual is chunk_size = t.

    Per batch-head slice and chunk of real length m (a padded tail counts its
    real positions only): intra m(m-1)/2 + m^2 n + 2mn (mask, M @ B, C . Z and
    the boundary row) plus one per position for the running product of the
    transitions; propagate n; inter mn + m, for every chunk but the first
    unless carry_in (a state h0 is passed).  These are the counts of the
    unfaulted kernel: a fault mode changes what a stage computes, not this.
    """
    b, h, n = _as_int(b, "batch"), _as_int(h, "heads"), _as_int(n, "state size")
    t, chunk_size, k, tail = _partition(t, chunk_size)
    if not isinstance(carry_in, bool):
        raise ValidationError(f"carry_in must be a bool, got {carry_in!r}")

    def over_chunks(per_chunk):  # k - 1 full chunks and the tail
        return b * h * ((k - 1) * per_chunk(chunk_size) + per_chunk(tail))

    skipped = 0 if carry_in else min(chunk_size, t)  # chunk 0 without a correction
    inter = over_chunks(lambda m: m * n + m) - b * h * (skipped * n + skipped)
    intra = over_chunks(lambda m: m * (m - 1) // 2 + m * m * n + 2 * m * n) + b * h * t
    return FlopCounter(intra, b * h * n * k, inter)


def dense_dual(coeffs: SsmCoefficients, x, h0=None, *,
               dense_limit: int = DEFAULT_DENSE_LIMIT):
    """Single-operator evaluation: one kernel block spanning the sequence.

    Materializes a (length, length) block per batch/head slice, so it is
    guarded by ``dense_limit``.  This is literally chunked_forward with one
    chunk, which is what makes the two agree bitwise at chunk_size = length.
    """
    _check_inputs(coeffs, x)
    dense_limit = _as_int(dense_limit, "dense limit", 1)
    if coeffs.length > dense_limit:
        raise CapacityError(
            f"sequence length {coeffs.length} exceeds dense limit {dense_limit}")
    return chunked_forward(coeffs, x, coeffs.length, h0)
