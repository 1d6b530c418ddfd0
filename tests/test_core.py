"""Recurrence, cumulative transitions, and the decay kernel matrix.

Oracle values here are worked by hand (small integer/dyadic cases) or come
from straight-line reference code kept next to the tests.  The reference
evaluates the unrolled sum term by term and never shares code with the
library's vectorized paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdkit import (
    DimensionError,
    SsmCoefficients,
    ValidationError,
    build_kernel_matrix,
    cumulative_transition,
    random_coefficients,
    recurrent_scan,
)
from ssdkit.core import _real_array


def scalar_coeffs(a_vals, b_vals=None, c_vals=None):
    """1-batch, 1-head, 1-state coefficients from plain per-step lists."""
    t = len(a_vals)
    a = np.asarray(a_vals, dtype=np.float64)[None, :, None]
    b = np.ones(t) if b_vals is None else np.asarray(b_vals, dtype=np.float64)
    c = np.ones(t) if c_vals is None else np.asarray(c_vals, dtype=np.float64)
    return SsmCoefficients(a, b[None, :, None, None], c[None, :, None, None])


def unrolled_reference(coeffs, x, h0=None):
    """Term-by-term evaluation of the unrolled recurrence.

    y_i = C_i . sum_{j<=i} prod(a over j+1..i) B_j x_j
        + C_i . prod(a over 1..i) h0

    Deliberately slow: one explicit product per (i, j) pair.
    """
    b, t, h, n = coeffs.Bmat.shape
    y = np.zeros((b, t, h))
    hT = np.zeros((b, h, n))
    for bi in range(b):
        for hi in range(h):
            a = coeffs.a[bi, :, hi]
            for i in range(t):
                acc = np.zeros(n)
                for j in range(i + 1):
                    w = cumulative_transition(a, i + 1, j + 1)
                    acc += w * coeffs.Bmat[bi, j, hi] * x[bi, j, hi]
                if h0 is not None:
                    acc += cumulative_transition(a, i + 1, 0) * h0[bi, hi]
                y[bi, i, hi] = coeffs.Cmat[bi, i, hi] @ acc
            acc = np.zeros(n)
            for j in range(t):
                acc += cumulative_transition(a, t, j + 1) * coeffs.Bmat[bi, j, hi] * x[bi, j, hi]
            if h0 is not None:
                acc += cumulative_transition(a, t, 0) * h0[bi, hi]
            hT[bi, hi] = acc
    return y, hT


def rel_err(got, ref):
    return np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-30)


class TestRecurrentScan:
    def test_unit_gate_accumulates_inputs(self):
        # a=1, B=C=1: the state is a running sum of the inputs
        coeffs = scalar_coeffs([1.0, 1.0, 1.0])
        x = np.ones((1, 3, 1))
        y, hT = recurrent_scan(coeffs, x)
        assert np.array_equal(y[0, :, 0], [1.0, 2.0, 3.0])
        assert hT[0, 0, 0] == 3.0

    def test_initial_state_shifts_every_output(self):
        coeffs = scalar_coeffs([1.0, 1.0, 1.0])
        x = np.ones((1, 3, 1))
        h0 = np.full((1, 1, 1), 5.0)
        y, hT = recurrent_scan(coeffs, x, h0)
        assert np.array_equal(y[0, :, 0], [6.0, 7.0, 8.0])
        assert hT[0, 0, 0] == 8.0

    def test_three_step_hand_computation(self):
        # dyadic gate and integer maps keep every intermediate exact:
        # h = (10, 0.5*10 + 21 = 26, 0.5*26 + 44 = 57), y = C .* h
        coeffs = scalar_coeffs([0.5, 0.5, 0.5], b_vals=[2.0, 3.0, 4.0], c_vals=[1.0, 1.0, 2.0])
        x = np.array([[5.0, 7.0, 11.0]])[:, :, None]
        y, hT = recurrent_scan(coeffs, x)
        assert np.array_equal(y[0, :, 0], [10.0, 26.0, 114.0])
        assert hT[0, 0, 0] == 57.0

    def test_impulse_decays_geometrically(self):
        # the gate scales the prior state, so an impulse passes through at
        # full weight and then halves once per step
        coeffs = scalar_coeffs([0.5, 0.5, 0.5, 0.5])
        x = np.array([[1.0, 0.0, 0.0, 0.0]])[:, :, None]
        y, hT = recurrent_scan(coeffs, x)
        assert np.array_equal(y[0, :, 0], [1.0, 0.5, 0.25, 0.125])
        assert hT[0, 0, 0] == 0.125

    def test_matches_unrolled_reference(self):
        rng = np.random.default_rng(42)
        coeffs = random_coefficients(rng, 2, 8, 2, 3)
        x = rng.standard_normal((2, 8, 2))
        h0 = rng.standard_normal((2, 2, 3))
        y, hT = recurrent_scan(coeffs, x, h0)
        y_ref, h_ref = unrolled_reference(coeffs, x, h0)
        assert rel_err(y, y_ref) <= 1e-12
        assert rel_err(hT, h_ref) <= 1e-12

    def test_linear_in_inputs(self):
        rng = np.random.default_rng(3)
        coeffs = random_coefficients(rng, 1, 12, 2, 4)
        x1 = rng.standard_normal((1, 12, 2))
        x2 = rng.standard_normal((1, 12, 2))
        y1, h1 = recurrent_scan(coeffs, x1)
        y2, h2 = recurrent_scan(coeffs, x2)
        y12, h12 = recurrent_scan(coeffs, 2.0 * x1 - 3.0 * x2)
        assert rel_err(y12, 2.0 * y1 - 3.0 * y2) <= 1e-12
        assert rel_err(h12, 2.0 * h1 - 3.0 * h2) <= 1e-12

    def test_state_superposition(self):
        # output from (x, h0) is the sum of the x-only and h0-only runs
        rng = np.random.default_rng(4)
        coeffs = random_coefficients(rng, 2, 10, 1, 3)
        x = rng.standard_normal((2, 10, 1))
        h0 = rng.standard_normal((2, 1, 3))
        y_full, h_full = recurrent_scan(coeffs, x, h0)
        y_x, h_x = recurrent_scan(coeffs, x)
        y_h, h_h = recurrent_scan(coeffs, np.zeros_like(x), h0)
        assert rel_err(y_full, y_x + y_h) <= 1e-12
        assert rel_err(h_full, h_x + h_h) <= 1e-12

    def test_rejects_mismatched_input_shape(self):
        coeffs = scalar_coeffs([0.5, 0.5])
        with pytest.raises(DimensionError):
            recurrent_scan(coeffs, np.ones((1, 3, 1)))

    def test_rejects_mismatched_state_shape(self):
        coeffs = scalar_coeffs([0.5, 0.5])
        with pytest.raises(DimensionError):
            recurrent_scan(coeffs, np.ones((1, 2, 1)), np.zeros((1, 2, 2)))

    def test_rejects_non_finite_input(self):
        coeffs = scalar_coeffs([0.5, 0.5])
        x = np.ones((1, 2, 1))
        x[0, 1, 0] = np.nan
        with pytest.raises(ValidationError):
            recurrent_scan(coeffs, x)

    # complex, bool and string input would be coerced to floats (dropping an
    # imaginary part, reading True as 1.0, parsing "2.0"); it is refused
    @pytest.mark.parametrize("bad", [np.full((1, 2, 1), 1 + 2j), np.ones((1, 2, 1), bool),
                                     [[["1"], ["2"]]]])
    def test_rejects_non_real_input(self, bad):
        coeffs = scalar_coeffs([0.5, 0.5])
        with pytest.raises(ValidationError, match="x must hold real numbers"):
            recurrent_scan(coeffs, bad)

    def test_rejects_a_complex_initial_state(self):
        coeffs = scalar_coeffs([0.5, 0.5])
        with pytest.raises(ValidationError, match="h0 must hold real numbers"):
            recurrent_scan(coeffs, np.ones((1, 2, 1)), np.zeros((1, 1, 1), complex))

    def test_integer_input_is_converted(self):
        coeffs = scalar_coeffs([0.5, 0.5])
        y, _ = recurrent_scan(coeffs, np.ones((1, 2, 1), np.uint8))
        assert np.array_equal(y, recurrent_scan(coeffs, np.ones((1, 2, 1)))[0])


class TestCumulativeTransition:
    def test_worked_example(self):
        a = np.array([2.0, 3.0, 4.0])
        assert cumulative_transition(a, 3, 1) == 12.0
        assert cumulative_transition(a, 3, 0) == 24.0
        assert cumulative_transition(a, 2, 1) == 3.0
        assert cumulative_transition(a, 1, 0) == 2.0

    def test_equal_boundaries_are_identity(self):
        a = np.array([2.0, 3.0, 4.0])
        for i in range(4):
            assert cumulative_transition(a, i, i) == 1.0

    def test_reversed_boundaries_are_zero(self):
        a = np.array([2.0, 3.0, 4.0])
        assert cumulative_transition(a, 1, 2) == 0.0
        assert cumulative_transition(a, 0, 3) == 0.0

    def test_out_of_range_boundaries_raise(self):
        a = np.array([2.0, 3.0, 4.0])
        with pytest.raises(IndexError):
            cumulative_transition(a, 4, 0)
        with pytest.raises(IndexError):
            cumulative_transition(a, 2, -1)

    def test_rejects_matrix_argument(self):
        with pytest.raises(DimensionError):
            cumulative_transition(np.ones((2, 2)), 1, 0)

    def test_rejects_complex_gates(self):
        with pytest.raises(ValidationError, match="a must hold real numbers"):
            cumulative_transition(np.array([0.5 + 1j, 0.5]), 2, 0)

    def test_composition_exact_on_dyadic_gates(self):
        # every factor a power of two, so products carry no rounding at all
        a = np.array([0.5, 2.0, 0.25, 4.0, 0.5, 8.0])
        for j in range(7):
            for k in range(j, 7):
                for i in range(k, 7):
                    left = cumulative_transition(a, i, k)
                    right = cumulative_transition(a, k, j)
                    assert cumulative_transition(a, i, j) == left * right

    def test_composition_on_random_gates(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.1, 1.0, size=9)
        for j in range(10):
            for k in range(j, 10):
                for i in range(k, 10):
                    whole = cumulative_transition(a, i, j)
                    split = cumulative_transition(a, i, k) * cumulative_transition(a, k, j)
                    assert whole == pytest.approx(split, rel=1e-12)


class TestKernelMatrix:
    def test_worked_example(self):
        L = build_kernel_matrix(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(L, [[1.0, 0.0, 0.0],
                                  [2.0, 1.0, 0.0],
                                  [6.0, 3.0, 1.0]])

    def test_unit_diagonal_and_zero_upper_triangle(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0.2, 0.9, size=12)
        L = build_kernel_matrix(a)
        assert np.array_equal(np.diag(L), np.ones(12))
        assert np.array_equal(np.triu(L, 1), np.zeros((12, 12)))

    def test_agrees_bitwise_with_pairwise_products(self):
        # the row recursion multiplies in the same ascending order as the
        # scalar product, so equality is exact, not approximate
        rng = np.random.default_rng(17)
        a = rng.uniform(0.05, 1.0, size=16)
        L = build_kernel_matrix(a)
        for i in range(16):
            for j in range(16):
                expected = cumulative_transition(a, i + 1, j + 1) if i >= j else 0.0
                assert L[i, j] == expected

    def test_rejects_non_positive_gates(self):
        with pytest.raises(ValidationError):
            build_kernel_matrix(np.array([0.5, 0.0, 0.5]))
        with pytest.raises(ValidationError):
            build_kernel_matrix(np.array([0.5, -0.5]))

    def test_rejects_empty_or_matrix_input(self):
        with pytest.raises(ValidationError):
            build_kernel_matrix(np.array([]))
        with pytest.raises(DimensionError):
            build_kernel_matrix(np.ones((2, 2)))

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_every_entry_is_the_boundary_product(self, gates):
        a = np.asarray(gates)
        L = build_kernel_matrix(a)
        t = len(gates)
        for i in range(t):
            for j in range(i + 1):
                assert L[i, j] == cumulative_transition(a, i + 1, j + 1)

    def test_dense_operator_form_matches_scan(self):
        # y = (L o C B^T) x evaluated per batch/head slice with plain matmuls
        rng = np.random.default_rng(7)
        b, t, h, n = 2, 32, 2, 4
        coeffs = random_coefficients(rng, b, t, h, n)
        x = rng.standard_normal((b, t, h))
        y_ref, _ = recurrent_scan(coeffs, x)
        y = np.zeros((b, t, h))
        for bi in range(b):
            for hi in range(h):
                L = build_kernel_matrix(coeffs.a[bi, :, hi])
                G = coeffs.Cmat[bi, :, hi] @ coeffs.Bmat[bi, :, hi].T
                y[bi, :, hi] = (L * G) @ x[bi, :, hi]
        assert rel_err(y, y_ref) <= 1e-12


class TestSsmCoefficients:
    def test_shape_properties(self):
        rng = np.random.default_rng(0)
        coeffs = random_coefficients(rng, 3, 7, 2, 5)
        assert (coeffs.batch, coeffs.length, coeffs.heads, coeffs.state_dim) == (3, 7, 2, 5)

    def test_gates_land_in_open_unit_interval(self):
        rng = np.random.default_rng(0)
        coeffs = random_coefficients(rng, 2, 64, 3, 2)
        assert np.all(coeffs.a > 0.0)
        assert np.all(coeffs.a < 1.0)

    def test_slice_time_is_a_view(self):
        rng = np.random.default_rng(1)
        coeffs = random_coefficients(rng, 1, 10, 1, 2)
        part = coeffs.slice_time(2, 6)
        assert part.length == 4
        assert np.shares_memory(part.a, coeffs.a)
        assert np.array_equal(part.Bmat, coeffs.Bmat[:, 2:6])

    def test_rejects_mismatched_tensors(self):
        a = np.full((1, 4, 2), 0.5)
        ok = np.zeros((1, 4, 2, 3))
        with pytest.raises(DimensionError):
            SsmCoefficients(a, ok, np.zeros((1, 4, 2, 4)))
        with pytest.raises(DimensionError):
            SsmCoefficients(a[0], ok, ok)

    def test_rejects_gates_above_one(self):
        ok = np.zeros((1, 4, 2, 3))
        SsmCoefficients(np.ones((1, 4, 2)), ok, ok)  # a = 1 (no decay) is allowed
        a = np.full((1, 4, 2), 0.5)
        a[0, 2, 1] = 1.5
        with pytest.raises(ValidationError):
            SsmCoefficients(a, ok, ok)

    @pytest.mark.parametrize("gates", [np.full((1, 4, 2), 0.5 + 0.1j), np.ones((1, 4, 2), bool),
                                       np.full((1, 4, 2), "0.5")])
    def test_rejects_non_real_gates(self, gates):
        ok = np.zeros((1, 4, 2, 3))
        with pytest.raises(ValidationError, match="a must hold real numbers"):
            SsmCoefficients(gates, ok, ok)

    def test_rejects_non_finite_coefficients(self):
        a = np.full((1, 4, 2), 0.5)
        bad = np.zeros((1, 4, 2, 3))
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(ValidationError):
            SsmCoefficients(a, bad, np.zeros((1, 4, 2, 3)))


class TestRealArray:
    # the kernel re-checks arrays it built itself: a float64 ndarray passes
    # the shape test as it is, with no conversion
    def test_a_float64_array_is_returned_itself(self):
        arr = np.zeros((2, 3))
        assert _real_array(arr, "x", (2, 3)) is arr
        view = np.zeros((4, 3))[::2]
        assert _real_array(view, "x") is view

    @pytest.mark.parametrize("arr", [np.zeros((2, 3)), np.zeros((2, 3), np.int32),
                                     np.zeros((2, 3), ">f8"), [[0.0] * 3] * 2])
    def test_a_wrong_shape_is_refused(self, arr):
        with pytest.raises(DimensionError, match=r"x shape \(2, 3\) does not match \(3, 2\)"):
            _real_array(arr, "x", (3, 2))

    @pytest.mark.parametrize("arr", [np.arange(3, dtype=np.int32), np.arange(3, dtype=np.float32),
                                     np.arange(3.0).astype(">f8"), [0, 1, 2],
                                     np.ma.masked_array([0.0, 1.0, 2.0])])
    def test_other_real_input_is_converted(self, arr):
        out = _real_array(arr, "x", (3,))
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.dtype.isnative
        assert np.array_equal(out, [0.0, 1.0, 2.0])
