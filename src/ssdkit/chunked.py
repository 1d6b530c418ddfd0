"""Block-decomposed evaluation of the state-space kernel.

The sequence is partitioned into chunks of ``chunk_size`` positions.  Every
stage runs once per call over all its chunks at once, on chunk-major arrays
(batch, chunks, heads, chunk_size, ...):

  1. intra   - the x-weighted decay mask M[i, j] = L[i, j] x_j of every
               chunk, times B, gives the local state after each position
               (Z = M @ B); C reads each chunk's local output out of it
               (C . Z), and B^T @ M[last row] is the state contribution of
               the chunk's inputs at its right boundary;
  2. propagate - boundary states are carried across chunks by one
               multiply-add per chunk (the only sequential stage), on a
               chunk-first buffer and over chunk-first increments, so each
               step reads and writes contiguous blocks (the increments cost
               one copy of b_intra at batch > 1 over several chunks);
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

A call holds its buffers over every chunk it is given: the workspace is
linear in the length (``workspace_elements``).  The bound on a long call is
its caller's: ``stack.layer_forward`` runs a layer in tiles of whole chunks
whose stage-1 mask fits a per-row budget, each tile one kernel call with
the state carried in, so every kernel call ``infer`` makes spans one tile.

Stage 3 reads out every chunk, the first from the state passed in; a
missing state (h0 None) is a zero state, so a call's flops are a closed
form of its shape alone (``stage_flops``), as its workspace is
(``workspace_elements``).  Stage 3 adds each correction into the stage-1
output buffer in place.

``chunked_forward`` returns only (y, hT).  Each stage is a public function
of the chunk-major arrays that ``chunk_major`` lays out, so a harness that
inspects one stage (``ssdkit.bench``'s equivalence suite) calls the stages
itself.

A ragged tail (length not a multiple of chunk_size) is padded to a full
chunk with a = 1 and B = C = x = 0: padded positions add exact zeros and
multiply decay products by exactly one, so outputs and the final state are
those of the unpadded sequence; y is a trimmed view of the padded output.
Only direct callers reach this path: ``stack._project`` pads a ragged
call's rows the same way before its projections, so every chunked kernel
call ``infer`` makes is chunk-aligned and lays its inputs out as views.

``dense_dual`` is the single-block special case (chunk_size = sequence
length): the same code path, so the two agree bitwise, and the same capacity
rule (``_chunk_size``), since it materializes a (length, length) block per slice.

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


def _chunk_size(chunk_size, name: str = "chunk size") -> int:
    """chunk_size as an int in [1, DEFAULT_DENSE_LIMIT]: a chunk of Q sizes a
    (Q, Q) mask per slice, so a longer one is a CapacityError before anything
    is allocated, whatever the call's length.  The one statement of the rule:
    a spec's Q, a one-chunk call's length and the closed forms' chunk pass here."""
    q = _as_int(chunk_size, name, 1)
    if q > DEFAULT_DENSE_LIMIT:
        raise CapacityError(f"{name} {q} exceeds dense limit {DEFAULT_DENSE_LIMIT}")
    return q


def _partition(t: int, chunk_size: int) -> tuple[int, int, int, int]:
    """t and chunk_size as ints, the chunk count and the last chunk's length."""
    t = _as_int(t, "sequence length", 1)
    chunk_size = _chunk_size(chunk_size)
    k = -(-t // chunk_size)
    return t, chunk_size, k, t - (k - 1) * chunk_size


def chunk_major(coeffs: SsmCoefficients, x, chunk_size: int):
    """Lay coefficients and inputs out chunk-major for the stage functions.

    Returns (a, Bmat, Cmat, x) with a and x (batch, chunks, heads, Q)
    and Bmat/Cmat (batch, chunks, heads, Q, state).  When the length is a
    multiple of Q these are zero-copy views of the inputs; otherwise they are
    copies with the tail padded by a = 1 and B = C = x = 0.  A chunk size
    above DEFAULT_DENSE_LIMIT is a CapacityError.
    """
    x = _check_inputs(coeffs, x)
    a, Bm, Cm = coeffs.a, coeffs.Bmat, coeffs.Cmat
    b, t, h, n = Bm.shape
    q = _chunk_size(chunk_size)
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
    every chunk given (see ``workspace_elements``).

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
    Bm = _real_array(Bm, "Bm")  # every other shape follows from it
    if Bm.ndim != 5:
        raise DimensionError(f"Bm must be (b,k,h,Q,n), got {Bm.shape}")
    b, k, h, q, _ = Bm.shape
    Cm = _real_array(Cm, "Cm", Bm.shape)
    x = _real_array(x, "x", (b, k, h, q))
    a = _real_array(a, "a", x.shape)
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

    The steps also read the increments chunk-first: a b_intra whose
    chunk-first view is not contiguous (intra_chunk's, at batch > 1 over
    several chunks) is copied once into a chunk-first buffer, which
    ``workspace_elements`` counts.  Each step makes the same two operations
    per element either way, so the copy changes no bit.
    """
    _check_fault(fault)
    b_intra = _real_array(b_intra, "b_intra")
    if b_intra.ndim != 4:
        raise DimensionError(f"b_intra must be (b,k,h,n), got {b_intra.shape}")
    b, k, h, n = b_intra.shape
    transitions = _real_array(transitions, "transitions", (b, k, h))
    b0 = _real_array(b0, "b0", (b, h, n))

    # chunk-first, so each step works on contiguous (b, h, n) blocks; the
    # blocks are filled with their chunk's transition at once, so the loop
    # multiplies in place without a broadcast (1 * s is s exactly).  Strided
    # increments took 1.5x as long on a (4, 64, 2, 4) b_intra (2-CPU host).
    states = np.empty((k + 1, b, h, n))
    states[0] = b0
    states[1:] = 1.0 if fault == FAULT_TRANSITION else transitions.swapaxes(0, 1)[..., None]
    increments = np.ascontiguousarray(b_intra.swapaxes(0, 1))  # a view if already chunk-first
    for s_c, s_next, b_c in zip(states[:-1], states[1:], increments):
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
    Cm = _real_array(Cm, "Cm")  # every other shape follows from it
    if Cm.ndim != 5:
        raise DimensionError(f"Cm must be (b,k,h,Q,n), got {Cm.shape}")
    b, k, h, q, n = Cm.shape
    entry = _real_array(entry, "entry", (b, k, h, q))
    b_prev = _real_array(b_prev, "b_prev", (b, k, h, n))
    if fault == FAULT_CORRECTION:
        return np.zeros((b, k, h, q), dtype=np.float64)
    return entry * (Cm @ b_prev[..., None])[..., 0]


def chunked_forward(coeffs: SsmCoefficients, x, chunk_size: int, h0=None, *, fault=None):
    """Full block-decomposed forward pass over every chunk of the call at once.

    Args:
        coeffs:     per-position coefficients.
        x:          (batch, length, heads) input channels.
        chunk_size: chunk length; a ragged final chunk is padded (see module).
        h0:         optional (batch, heads, state) initial state; None is
                    exactly a zero state, with the same bits and counts.

    Returns:
        (y, hT) matching recurrent_scan, y trimmed from whole chunks.  The
        float64 elements held beyond the inputs, y included, peak at
        workspace_elements(...) of the shape.
    """
    a, Bm, Cm, xs = chunk_major(coeffs, x, chunk_size)
    b, k, h, q, n = Bm.shape
    b0 = np.zeros((b, h, n)) if h0 is None else _as_f64(h0, "h0", (b, h, n))
    y_c, b_intra = intra_chunk(a, Bm, Cm, xs, fault=fault)
    entry = np.empty(xs.shape)
    np.multiply.accumulate(a, axis=-1, out=entry)  # np.cumprod, without its wrapper
    states = propagate_states(b_intra, entry[..., -1], b0, fault=fault)
    y_c += inter_chunk_correction(entry, Cm, states[:, :k], fault=fault)
    hT = states[:, k].copy()
    del b_intra, entry, b0, states  # freed before y is made
    y = y_c.swapaxes(-1, -2).reshape(b, -1, h)  # one copy of the time-major view
    return y[:, :coeffs.length], hT  # the padded tail dropped


def workspace_elements(b: int, t: int, h: int, n: int, chunk_size: int) -> int:
    """Peak float64 elements chunked_forward holds beyond its inputs, y included.

    Batch b, length t, heads h, state size n; dense_dual is chunk_size = t.
    The call peaks in the stage with the most live buffers, plus the padded
    copies of a, B, C and x if it is ragged; y, made once the stage buffers
    are freed, is smaller.  Stage 2 holds a chunk-first copy of b_intra when
    batch > 1 and the call has more than one chunk (see
    ``propagate_states``).  Temporaries inside one expression are not
    counted.
    """
    b, h, n = _as_int(b, "batch", 1), _as_int(h, "heads", 1), _as_int(n, "state size", 1)
    t, q, k, last = _partition(t, chunk_size)
    c = b * k * h * q  # a chunk-major (b, k, h, Q) buffer
    p = b * k * h * n  # one state per chunk
    g = b * h * n      # one state
    pad = 2 * c * (1 + n) if last < q else 0
    copy = p if b > 1 and k > 1 else 0  # stage 2's chunk-first increments
    return pad + max(c * q + c * n + p,          # stage 1: mask, Z, b_intra
                     2 * c + 2 * p + g + copy,   # y_intra, entry, b_intra, states
                     3 * c + p + g)              # stage 3: y_intra, entry, correction, states


def stage_flops(b: int, t: int, h: int, n: int, chunk_size: int) -> FlopCounter:
    """Per-stage flops of one chunked_forward call; dense_dual is chunk_size = t.

    Per batch-head slice and chunk of real length m (a padded tail counts its
    real positions only): intra m(m-1)/2 + m^2 n + 2mn (mask, M @ B, C . Z and
    the boundary row) plus one per position for the running product of the
    transitions; propagate n; inter mn + m.  Stage 3 reads out every chunk,
    the first from h0 or a zero state.  These are the counts of the unfaulted
    kernel: a fault mode changes what a stage computes, not this.
    """
    b, h, n = _as_int(b, "batch", 1), _as_int(h, "heads", 1), _as_int(n, "state size", 1)
    t, chunk_size, k, tail = _partition(t, chunk_size)

    def over_chunks(per_chunk):  # k - 1 full chunks and the tail
        return b * h * ((k - 1) * per_chunk(chunk_size) + per_chunk(tail))

    intra = over_chunks(lambda m: m * (m - 1) // 2 + m * m * n + 2 * m * n) + b * h * t
    return FlopCounter(intra, b * h * n * k, over_chunks(lambda m: m * n + m))


def dense_dual(coeffs: SsmCoefficients, x, h0=None):
    """Single-operator evaluation: one kernel block spanning the sequence.

    Materializes a (length, length) block per batch/head slice, so a length
    above DEFAULT_DENSE_LIMIT is refused (``_chunk_size``).  This is literally
    chunked_forward with one chunk, which is what makes the two agree bitwise
    at chunk_size = length.  h0 is an optional (batch, heads, state) initial
    state; None is exactly a zero state, with the same bits and counts.
    """
    _check_inputs(coeffs, x)
    return chunked_forward(coeffs, x, _chunk_size(coeffs.length, "sequence length"), h0)
