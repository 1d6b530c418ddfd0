"""Core selective state-space kernel: recurrence, transitions, kernel matrix.

A sequence layer is driven by per-position coefficients (a_t, B_t, C_t) and a
scalar input channel x_t per head.  The state update and readout are

    h_t = a_t * h_{t-1} + B_t * x_t        h_t in R^N
    y_t = C_t . h_t

The same map can be written as one lower-triangular operator y = M x with
M[i, j] = C_i . B_j * prod(a_k for k in j+1..i).  This module implements the
recurrent evaluation, the scalar cumulative-transition products, and the
materialized kernel matrix; the block-decomposed evaluations live in
``ssdkit.chunked``.

Array conventions (all float64):
    x, y : (batch, length, heads)
    a    : (batch, length, heads)          transition scalars, 0 < a <= 1
    B, C : (batch, length, heads, state)
    h    : (batch, heads, state)
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ValidationError

__all__ = [
    "SsmCoefficients",
    "random_coefficients",
    "cumulative_transition",
    "build_kernel_matrix",
    "recurrent_scan",
]


def _as_int(value, name: str, minimum: int | None = None, *, error=ValidationError) -> int:
    """value as an int of at least ``minimum`` (when given): Python and NumPy
    integers pass, bools and the rest (floats included, however integral)
    are refused with ``error`` (FormatError for a field read from a document)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return value


def _positive_real(value, name: str) -> float:
    """value as a finite float above 0: Python and NumPy integers and floats
    pass, bools and non-numbers (strings included) are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not 0.0 < value < math.inf:  # false for NaN too
        raise ValidationError(f"{name} must be finite and positive, got {value}")
    return value


_F64 = np.dtype(np.float64)


def _real_array(arr, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """arr as a float64 array of exactly ``shape`` (when given): float and
    (unsigned) integer input is converted, any other dtype (complex, bool,
    strings, objects) refused.  A float64 ndarray, such as every array the
    kernel builds for itself, is returned as it is after the shape test."""
    if type(arr) is not np.ndarray or arr.dtype != _F64:
        arr = np.asarray(arr)
        if arr.dtype.kind not in "fiu":
            raise ValidationError(f"{name} must hold real numbers, got dtype {arr.dtype}")
        arr = arr.astype(_F64, copy=False)
    if shape is not None and arr.shape != shape:
        raise DimensionError(f"{name} shape {arr.shape} does not match {shape}")
    return arr


def _as_f64(arr, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """_real_array, refusing non-finite values too."""
    out = _real_array(arr, name, shape)
    if not np.isfinite(out).all():
        raise ValidationError(f"{name} contains non-finite values")
    return out


class SsmCoefficients:
    """Per-position coefficient tensors for one sequence layer.

    Attributes:
        a:    (batch, length, heads) transition scalars in (0, 1].
        Bmat: (batch, length, heads, state) input maps.
        Cmat: (batch, length, heads, state) readout maps.
    """

    __slots__ = ("a", "Bmat", "Cmat")

    def __init__(self, a, Bmat, Cmat, *, validate: bool = True):
        if validate:
            a = _as_f64(a, "a")
            Bmat = _as_f64(Bmat, "Bmat")
            Cmat = _as_f64(Cmat, "Cmat")
            if a.ndim != 3 or Bmat.ndim != 4 or Cmat.ndim != 4:
                raise DimensionError(
                    "expected a:(b,t,h), Bmat:(b,t,h,n), Cmat:(b,t,h,n); got "
                    f"{a.shape}, {Bmat.shape}, {Cmat.shape}"
                )
            if Bmat.shape != Cmat.shape or Bmat.shape[:3] != a.shape:
                raise DimensionError(
                    f"coefficient extents disagree: a {a.shape}, "
                    f"Bmat {Bmat.shape}, Cmat {Cmat.shape}"
                )
            if a.shape[1] < 1:
                raise ValidationError("sequence length must be at least 1")
            if not np.all((a > 0.0) & (a <= 1.0)):
                raise ValidationError("transition scalars must lie in (0, 1]")
        self.a = a
        self.Bmat = Bmat
        self.Cmat = Cmat

    @property
    def batch(self) -> int:
        return self.a.shape[0]

    @property
    def length(self) -> int:
        return self.a.shape[1]

    @property
    def heads(self) -> int:
        return self.a.shape[2]

    @property
    def state_dim(self) -> int:
        return self.Bmat.shape[3]

    def slice_time(self, start: int, stop: int) -> "SsmCoefficients":
        """Return a zero-copy time-slice view."""
        return SsmCoefficients(
            self.a[:, start:stop],
            self.Bmat[:, start:stop],
            self.Cmat[:, start:stop],
            validate=False,
        )


def random_coefficients(rng: np.random.Generator, batch: int, length: int,
                        heads: int, state_dim: int) -> SsmCoefficients:
    """Draw a well-conditioned random coefficient set for tests and benchmarks.

    Transitions are squashed into (0, 1) through exp(-softplus(z)) so decay
    products stay positive and bounded; B and C are scaled to keep readouts
    O(1) at any state size.
    """
    counts = dict(batch=batch, length=length, heads=heads, state_dim=state_dim)
    batch, length, heads, state_dim = (_as_int(v, k, 1) for k, v in counts.items())
    z = rng.standard_normal((batch, length, heads))
    a = np.exp(-np.logaddexp(0.0, z))
    scale = 1.0 / np.sqrt(state_dim)
    Bmat = rng.standard_normal((batch, length, heads, state_dim)) * scale
    Cmat = rng.standard_normal((batch, length, heads, state_dim)) * scale
    return SsmCoefficients(a, Bmat, Cmat)


def _check_inputs(coeffs: SsmCoefficients, x) -> np.ndarray:
    """x as the float64 input of a kernel call on coeffs, an SsmCoefficients."""
    if not isinstance(coeffs, SsmCoefficients):
        raise ValidationError(f"coeffs must be SsmCoefficients, got {type(coeffs).__name__}")
    return _as_f64(x, "x", coeffs.a.shape)


def cumulative_transition(a, i: int, j: int) -> float:
    """Product of transition scalars over positions j+1 .. i (1-based).

    Returns 1.0 when i == j and 0.0 when i < j, matching the off-diagonal
    structure of the kernel matrix.  Positions index boundaries 0..T, so the
    factor for position k is a[k-1].
    """
    a = _real_array(a, "a")
    if a.ndim != 1:
        raise DimensionError(f"expected 1-D transition series, got shape {a.shape}")
    i, j = _as_int(i, "boundary index i"), _as_int(j, "boundary index j")
    n = a.shape[0]
    if not (0 <= i <= n and 0 <= j <= n):
        raise IndexError(f"boundary indices ({i}, {j}) out of range for length {n}")
    if i < j:
        return 0.0
    p = 1.0
    for k in range(j + 1, i + 1):  # ascending, fixed order
        p = p * float(a[k - 1])
    return p


def build_kernel_matrix(a) -> np.ndarray:
    """Materialize the (length, length) decay kernel for one transition series.

    L[i, j] = prod(a[k] for k in j+1..i), unit diagonal, zero above it.  Rows
    are filled by running products (L[i, j] = a[i] * L[i-1, j]) so no division
    is ever taken; every entry agrees bit-exactly with cumulative_transition.
    """
    a = _as_f64(a, "a")
    if a.ndim != 1:
        raise DimensionError(f"expected 1-D transition series, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValidationError("transition series must have length >= 1")
    if not np.all(a > 0.0):
        raise ValidationError("transition scalars must be positive")
    q = a.shape[0]
    L = np.zeros((q, q), dtype=np.float64)
    L[0, 0] = 1.0
    for i in range(1, q):
        L[i, :i] = a[i] * L[i - 1, :i]
        L[i, i] = 1.0
    return L


def recurrent_scan(coeffs: SsmCoefficients, x, h0=None):
    """Stepwise evaluation of the recurrence; the sequential ground truth.

    Args:
        coeffs: per-position coefficients.
        x:      (batch, length, heads) input channels.
        h0:     (batch, heads, state) initial state; zeros when omitted.

    Returns:
        (y, hT): outputs (batch, length, heads) and final state
        (batch, heads, state).  Peak auxiliary memory is one state vector
        regardless of length.
    """
    x = _check_inputs(coeffs, x)
    b, t, heads = x.shape
    n = coeffs.state_dim
    if h0 is None:
        h = np.zeros((b, heads, n), dtype=np.float64)
    else:
        h = _as_f64(h0, "h0", (b, heads, n)).copy()
    y = np.empty((b, t, heads), dtype=np.float64)
    a, Bmat, Cmat = coeffs.a, coeffs.Bmat, coeffs.Cmat
    for step in range(t):
        h = a[:, step, :, None] * h + Bmat[:, step] * x[:, step, :, None]
        y[:, step] = np.einsum("bhn,bhn->bh", Cmat[:, step], h)
    return y, h
