"""The chunk-major layout, the three evaluation stages, fault modes, and
cost counting.

Stage oracles are the sequential scan run over the corresponding span, which
exercises none of the blockwise code.
"""

import contextlib
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssdkit.chunked as chunked
from ssdkit import (
    DEFAULT_DENSE_LIMIT,
    CapacityError,
    FAULT_MODES,
    SsmCoefficients,
    ValidationError,
    chunk_major,
    chunked_forward,
    dense_dual,
    inter_chunk_correction,
    intra_chunk,
    propagate_states,
    random_coefficients,
    recurrent_scan,
    stage_flops,
    workspace_elements,
)


def rel_err(got, ref):
    return np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-30)


def random_problem(seed, batch, t, heads, n, with_state=True):
    rng = np.random.default_rng(seed)
    coeffs = random_coefficients(rng, batch, t, heads, n)
    x = rng.standard_normal((batch, t, heads))
    h0 = rng.standard_normal((batch, heads, n)) if with_state else None
    return coeffs, x, h0


class TestChunkCount:
    @pytest.mark.parametrize("t,q,chunks", [
        (12, 4, 3),  # even
        (10, 4, 3),  # ragged tail
        (5, 8, 1),   # chunk larger than the sequence
        (8, 8, 1),   # exactly one chunk
    ])
    def test_chunk_major_chunk_count(self, t, q, chunks):
        coeffs, x, _ = random_problem(1, 1, t, 1, 2)
        a, Bm, Cm, xs = chunk_major(coeffs, x, q)
        assert a.shape == xs.shape == (1, chunks, 1, q)
        assert Bm.shape == Cm.shape == (1, chunks, 1, q, 2)

    def test_chunk_major_rejects_a_zero_chunk_size(self):
        coeffs, x, _ = random_problem(1, 1, 4, 1, 2)
        with pytest.raises(ValidationError):
            chunk_major(coeffs, x, 0)

    @pytest.mark.parametrize("q", [16.0, 4.5, True, "16", None])
    def test_rejects_a_non_integer_chunk_size(self, q):
        coeffs, x, _ = random_problem(1, 1, 40, 2, 4)
        with pytest.raises(ValidationError, match="chunk size must be an integer"):
            chunked_forward(coeffs, x, q)
        with pytest.raises(ValidationError, match="chunk size must be an integer"):
            stage_flops(1, 40, 2, 4, q)
        with pytest.raises(ValidationError, match="chunk size must be an integer"):
            workspace_elements(1, 40, 2, 4, q)

    def test_numpy_integer_chunk_sizes_are_accepted(self):
        coeffs, x, _ = random_problem(1, 1, 40, 2, 4)
        for got, want in zip(chunked_forward(coeffs, x, np.int64(16)),
                             chunked_forward(coeffs, x, 16)):
            assert np.array_equal(got, want)
        assert (stage_flops(1, 40, 2, 4, np.int64(16))
                == stage_flops(1, 40, 2, 4, 16))
        assert workspace_elements(1, 40, 2, 4, np.int64(16)) == workspace_elements(1, 40, 2, 4, 16)
        # NumPy integers in, Python ints out, which JSON can write
        numpy_shape = [np.int64(v) for v in (1, 40, 2, 4, 16)]
        counts = dataclasses.asdict(stage_flops(*numpy_shape))
        peak = workspace_elements(*numpy_shape)
        assert all(type(v) is int for v in [*counts.values(), peak])
        json.dumps([counts, peak])

    @pytest.mark.parametrize("t,q", [(0, 4), (-3, 4), (8, 0)])
    def test_closed_forms_reject_an_empty_partition(self, t, q):
        with pytest.raises(ValidationError):
            stage_flops(1, t, 2, 4, q)
        with pytest.raises(ValidationError):
            workspace_elements(1, t, 2, 4, q)


def time_major(arr, t):
    """(b, k, h, q, ...) chunk-major -> (b, t, h, ...) with the padded tail trimmed."""
    b, k, h, q = arr.shape[:4]
    flat = np.moveaxis(arr, 3, 2).reshape((b, k * q, h) + arr.shape[4:])
    return flat[:, :t]


class TestPartition:
    def test_views_tile_the_sequence(self):
        coeffs, x, _ = random_problem(2, 2, 11, 2, 3)
        a, Bm, Cm, xs = chunk_major(coeffs, x, 4)
        assert a.shape == xs.shape == (2, 3, 2, 4)
        assert Bm.shape == Cm.shape == (2, 3, 2, 4, 3)
        assert np.array_equal(time_major(xs, 11), x)
        assert np.array_equal(time_major(a, 11), coeffs.a)
        assert np.array_equal(time_major(Cm, 11), coeffs.Cmat)
        # the ragged tail is padded with a = 1 and B = C = x = 0
        assert np.array_equal(a[:, 2, :, 3], np.ones((2, 2)))
        for arr in (Bm, Cm, xs):
            assert not np.any(arr[:, 2, :, 3])

    def test_views_share_memory_with_the_source(self):
        coeffs, x, _ = random_problem(2, 1, 8, 1, 2)
        a, Bm, _, xs = chunk_major(coeffs, x, 4)
        assert np.shares_memory(xs, x)
        assert np.shares_memory(Bm, coeffs.Bmat)
        assert np.array_equal(Bm[:, 1, 0], coeffs.Bmat[:, 4:8, 0])
        assert np.array_equal(a[:, 1, 0], coeffs.a[:, 4:8, 0])

    def test_boundary_transitions_are_chunk_products(self):
        coeffs, x, _ = random_problem(5, 2, 10, 3, 2)
        a, _, _, _ = chunk_major(coeffs, x, 4)
        trans = np.cumprod(a, axis=-1)[..., -1]
        assert trans.shape == (2, 3, 3)
        for c in range(3):
            start, stop = 4 * c, min(4 * c + 4, 10)
            # ascending running product; the padded ones leave it unchanged
            expected = np.ones((2, 3))
            for pos in range(start, stop):
                expected = expected * coeffs.a[:, pos]
            assert np.array_equal(trans[:, c], expected)


class TestIntraChunk:
    def test_zero_input_gives_zero_outputs(self):
        coeffs, _, _ = random_problem(0, 1, 6, 2, 3)
        a, Bm, Cm, xs = chunk_major(coeffs, np.zeros((1, 6, 2)), 6)
        y_intra, b_intra = intra_chunk(a, Bm, Cm, xs)
        assert np.array_equal(y_intra, np.zeros((1, 1, 2, 6)))
        assert np.array_equal(b_intra, np.zeros((1, 1, 2, 3)))

    def test_single_position_chunk_closed_form(self):
        # length-1 chunk: y = (C . B) x and the boundary state is B x
        coeffs, x, _ = random_problem(1, 2, 1, 2, 4)
        y_intra, b_intra = intra_chunk(*chunk_major(coeffs, x, 1))
        want_y = np.einsum("bhn,bhn->bh", coeffs.Cmat[:, 0], coeffs.Bmat[:, 0]) * x[:, 0]
        want_b = coeffs.Bmat[:, 0] * x[:, 0][..., None]
        assert rel_err(y_intra[:, 0, :, 0], want_y) <= 1e-13
        assert rel_err(b_intra[:, 0], want_b) <= 1e-13

    def test_matches_zero_state_scan_over_the_chunk(self):
        # every chunk of a ragged run, each against its own zero-state scan
        coeffs, x, _ = random_problem(3, 2, 14, 2, 3)
        y_intra, b_intra = intra_chunk(*chunk_major(coeffs, x, 6))
        for c, (start, stop) in enumerate([(0, 6), (6, 12), (12, 14)]):
            y_ref, h_ref = recurrent_scan(coeffs.slice_time(start, stop), x[:, start:stop])
            got = y_intra[:, c, :, :stop - start].transpose(0, 2, 1)
            assert rel_err(got, y_ref) <= 1e-12
            assert rel_err(b_intra[:, c], h_ref) <= 1e-12

    def test_takes_plain_lists(self):
        # every array passes core._real_array, as stage 2's and stage 3's do;
        # the lists are read as C-ordered arrays (a product over a strided
        # view may take another BLAS path)
        coeffs, x, _ = random_problem(4, 2, 8, 2, 3)
        arrays = [np.ascontiguousarray(v) for v in chunk_major(coeffs, x, 4)]
        for got, want in zip(intra_chunk(*[v.tolist() for v in arrays]), intra_chunk(*arrays)):
            assert np.array_equal(got, want)

    def test_flop_count_is_the_closed_form(self):
        # b*h * (q(q-1)/2 mask products + q^2 n for M @ B + q n for the C . Z
        #        readout + q n for the boundary matvec), per chunk of its real
        #        length, plus one product per position for the running product
        n = 5

        def per_slice(q):
            return q * (q - 1) // 2 + q * q * n + 2 * q * n

        flops = stage_flops(2, 11, 3, n, 4)
        assert flops.intra == 2 * 3 * (2 * per_slice(4) + per_slice(3) + 11)
        assert flops.propagate == 2 * 3 * n * 3
        assert flops.inter == 2 * 3 * (2 * (4 * n + 4) + 3 * n + 3)  # every chunk


class TestPropagateStates:
    def test_worked_scalar_example(self):
        b_intra = np.ones((1, 2, 1, 1))
        transitions = np.array([[[2.0], [3.0]]])  # (1, 2, 1)
        b0 = np.ones((1, 1, 1))
        states = propagate_states(b_intra, transitions, b0)
        assert states.shape == (1, 3, 1, 1)
        assert np.array_equal(states[0, :, 0, 0], [1.0, 3.0, 10.0])

    def test_transition_fault_drops_the_carry_factor(self):
        b_intra = np.ones((1, 2, 1, 1))
        transitions = np.array([[[2.0], [3.0]]])
        b0 = np.ones((1, 1, 1))
        states = propagate_states(b_intra, transitions, b0, fault="state-transition")
        assert np.array_equal(states[0, :, 0, 0], [1.0, 2.0, 3.0])

    @staticmethod
    def stepwise(b_intra, transitions, b0, fault):
        """The carry one chunk at a time: s_{c+1} = t_c s_c + b_c (t_c = 1 under the fault)."""
        states = [b0]
        for c in range(b_intra.shape[1]):
            carry = states[-1] if fault else transitions[:, c, :, None] * states[-1]
            states.append(carry + b_intra[:, c])
        return np.stack(states, axis=1)

    # every layout of the same increments steps to the same bits: intra_chunk's
    # C order (copied chunk-first at batch > 1), already chunk-first (stepped
    # over as a view), Fortran order and a strided slice
    @pytest.mark.parametrize("layout", ["c", "chunk-first", "fortran", "strided"])
    @pytest.mark.parametrize("fault", [None, "state-transition"])
    @pytest.mark.parametrize("b", [1, 3])
    def test_every_layout_matches_the_stepwise_carry(self, b, fault, layout):
        rng = np.random.default_rng(b)
        k, h, n = 5, 2, 3
        b_intra = rng.standard_normal((b, k, h, n))
        transitions, b0 = rng.random((b, k, h)), rng.standard_normal((b, h, n))
        given = {
            "c": b_intra,
            "chunk-first": np.ascontiguousarray(b_intra.swapaxes(0, 1)).swapaxes(0, 1),
            "fortran": np.asfortranarray(b_intra),
            "strided": np.repeat(b_intra, 2, axis=-1)[..., ::2],
        }[layout]
        assert np.array_equal(given, b_intra)
        states = propagate_states(given, transitions, b0, fault=fault)
        assert np.array_equal(states, self.stepwise(b_intra, transitions, b0, fault))

    # at Q = 1 stage 2 is a tile's peak: y_intra and entry (one element per
    # chunk), b_intra, the k + 1 states and, at batch > 1 over several
    # chunks, b_intra's chunk-first copy
    @pytest.mark.parametrize("b,t,copied", [(3, 16, True), (1, 16, False), (3, 1, False)])
    def test_workspace_counts_the_chunk_first_copy(self, b, t, copied):
        h, n = 2, 3
        c, g = b * t * h, b * h * n
        assert workspace_elements(b, t, h, n, 1) == 2 * c + 2 * c * n + g + copied * c * n

    def test_flop_count(self):
        # one multiply-add of a state per chunk, ragged tail included
        for t in (16, 14):
            assert stage_flops(2, t, 3, 5, 4).propagate == 2 * 3 * 5 * 4

    def test_rejects_mismatched_shapes(self):
        from ssdkit import DimensionError
        with pytest.raises(DimensionError):
            propagate_states(np.ones((1, 2, 1, 1)), np.ones((1, 3, 1)), np.zeros((1, 1, 1)))
        with pytest.raises(DimensionError):
            propagate_states(np.ones((1, 2, 1, 1)), np.ones((1, 2, 1)), np.zeros((2, 1, 1)))

    @pytest.mark.parametrize("field", ["b_intra", "transitions", "b0"])
    @pytest.mark.parametrize("dtype", [complex, bool, str])
    def test_rejects_non_real_arrays(self, field, dtype):
        args = {"b_intra": np.ones((1, 2, 1, 1)), "transitions": np.ones((1, 2, 1)),
                "b0": np.zeros((1, 1, 1))}
        args[field] = args[field].astype(dtype)
        with pytest.raises(ValidationError, match=f"{field} must hold real numbers"):
            propagate_states(**args)


class TestInterChunkCorrection:
    def test_zero_carry_gives_zero_correction(self):
        coeffs, x, _ = random_problem(6, 1, 8, 2, 3)
        a, _, Cm, _ = chunk_major(coeffs, x, 4)
        y_inter = inter_chunk_correction(np.cumprod(a, axis=-1), Cm, np.zeros((1, 2, 2, 3)))
        assert np.array_equal(y_inter, np.zeros((1, 2, 2, 4)))

    def test_matches_silenced_input_scan(self):
        # carried state read out with the chunk's own inputs silenced
        coeffs, x, h0 = random_problem(5, 2, 8, 2, 4)
        a, _, Cm, _ = chunk_major(coeffs, x, 4)
        y_inter = inter_chunk_correction(np.cumprod(a[:, 1:], axis=-1), Cm[:, 1:], h0[:, None])
        y_ref, _ = recurrent_scan(coeffs.slice_time(4, 8), np.zeros((2, 4, 2)), h0)
        assert rel_err(y_inter[:, 0].transpose(0, 2, 1), y_ref) <= 1e-12

    def test_takes_plain_lists(self):
        coeffs, x, h0 = random_problem(5, 2, 8, 2, 4)
        a, _, Cm, _ = chunk_major(coeffs, x, 4)
        arrays = (np.cumprod(a, axis=-1), np.ascontiguousarray(Cm), np.stack([h0, h0], axis=1))
        assert np.array_equal(inter_chunk_correction(*[v.tolist() for v in arrays]),
                              inter_chunk_correction(*arrays))

    def test_rejects_a_complex_carried_state(self):
        coeffs, x, _ = random_problem(6, 1, 8, 2, 3)
        a, _, Cm, _ = chunk_major(coeffs, x, 4)
        with pytest.raises(ValidationError, match="b_prev must hold real numbers"):
            inter_chunk_correction(np.cumprod(a, axis=-1), Cm, np.zeros((1, 2, 2, 3), complex))

    def test_correction_fault_silences_the_stage(self):
        coeffs, x, h0 = random_problem(5, 2, 8, 2, 4)
        a, _, Cm, _ = chunk_major(coeffs, x, 4)
        y_inter = inter_chunk_correction(np.cumprod(a, axis=-1), Cm, np.stack([h0, h0], axis=1),
                                         fault="output-correction")
        assert np.array_equal(y_inter, np.zeros((2, 2, 2, 4)))


class TestChunkedForward:
    def test_single_chunk_equals_dense_bitwise(self):
        # chunk_size = length takes the identical code path as dense_dual
        coeffs, x, h0 = random_problem(9, 2, 16, 2, 4)
        y_c, h_c = chunked_forward(coeffs, x, 16, h0)
        y_d, h_d = dense_dual(coeffs, x, h0)
        assert np.array_equal(y_c, y_d)
        assert np.array_equal(h_c, h_d)

    def test_unit_chunks_match_the_scan(self):
        coeffs, x, h0 = random_problem(10, 2, 12, 2, 3)
        y, hT = chunked_forward(coeffs, x, 1, h0)
        y_ref, h_ref = recurrent_scan(coeffs, x, h0)
        assert rel_err(y, y_ref) <= 1e-12
        assert rel_err(hT, h_ref) <= 1e-12

    @pytest.mark.parametrize("q", [2, 4, 8, 16, 48])
    def test_chunk_size_does_not_change_the_answer(self, q):
        coeffs, x, h0 = random_problem(13, 2, 48, 2, 4)
        y_ref, h_ref = recurrent_scan(coeffs, x, h0)
        y, hT = chunked_forward(coeffs, x, q, h0)
        assert rel_err(y, y_ref) <= 1e-10
        assert rel_err(hT, h_ref) <= 1e-10

    def test_ragged_tail_chunk(self):
        coeffs, x, h0 = random_problem(14, 1, 13, 2, 3)
        y, hT = chunked_forward(coeffs, x, 5, h0)  # chunks of 5, 5, 3
        y_ref, h_ref = recurrent_scan(coeffs, x, h0)
        assert rel_err(y, y_ref) <= 1e-12
        assert rel_err(hT, h_ref) <= 1e-12

    def test_zero_state_argument_matches_omitted_state(self):
        # an explicit zero state must not change the outputs
        coeffs, x, _ = random_problem(15, 2, 16, 2, 3)
        y1, h1 = chunked_forward(coeffs, x, 4, None)
        y2, h2 = chunked_forward(coeffs, x, 4, np.zeros((2, 2, 3)))
        assert np.array_equal(y1, y2)
        assert np.array_equal(h1, h2)

    @pytest.mark.parametrize("t,q", [(16, 4), (13, 5), (3, 8)])
    def test_every_chunk_charges_its_correction(self, t, q):
        # stage 3 reads out each position once, the first chunk's included
        n = 3
        assert stage_flops(2, t, 2, n, q).inter == 2 * 2 * (t * n + t)

    @pytest.mark.parametrize("t,q", [(16, 4), (13, 5), (3, 8)])
    def test_stage_three_runs_the_chunks_the_count_charges(self, monkeypatch, t, q):
        # one stage-3 call over every chunk, whatever state enters the call:
        # None is a zero state, so it reads out chunk 0 as well
        import ssdkit.chunked as chunked
        seen = []
        original = chunked.inter_chunk_correction

        def recorded(entry, *args, **kwargs):
            seen.append(entry.shape[1])
            return original(entry, *args, **kwargs)

        monkeypatch.setattr(chunked, "inter_chunk_correction", recorded)
        coeffs, x, h0 = random_problem(16, 2, t, 2, 3)
        num_chunks = -(-t // q)
        for state in (None, np.zeros_like(h0), h0):
            seen.clear()
            chunked_forward(coeffs, x, q, state)
            assert seen == [num_chunks]

    def test_dense_guard_trips_above_the_limit(self):
        # the guard fires before any quadratic work, so the long call is cheap
        coeffs, x, _ = random_problem(16, 1, DEFAULT_DENSE_LIMIT + 1, 1, 1)
        with pytest.raises(CapacityError, match="^sequence length 4097 exceeds dense limit 4096$"):
            dense_dual(coeffs, x)
        coeffs, x, _ = random_problem(16, 1, DEFAULT_DENSE_LIMIT, 1, 1)
        y, _ = dense_dual(coeffs, x)  # at the limit is fine
        assert y.shape == (1, DEFAULT_DENSE_LIMIT, 1)

    def test_unknown_fault_name_rejected(self):
        coeffs, x, _ = random_problem(17, 1, 8, 1, 2)
        with pytest.raises(ValidationError):
            chunked_forward(coeffs, x, 4, fault="not-a-mode")


class TestFaultModes:
    def test_every_mode_perturbs_a_multi_chunk_run(self):
        coeffs, x, h0 = random_problem(18, 2, 16, 2, 3)
        y_ref, h_ref = chunked_forward(coeffs, x, 4, h0)
        for mode in FAULT_MODES:
            y, hT = chunked_forward(coeffs, x, 4, h0, fault=mode)
            assert not (np.array_equal(y, y_ref) and np.array_equal(hT, h_ref)), mode

    def test_transition_fault_can_hide_in_the_output_alone(self):
        # two chunks, zero entry state: the faulty carry first differs at the
        # final boundary, so the output stream alone cannot witness it
        coeffs, x, _ = random_problem(19, 1, 8, 1, 3)
        y_ref, h_ref = chunked_forward(coeffs, x, 4)
        y, hT = chunked_forward(coeffs, x, 4, fault="state-transition")
        assert np.array_equal(y, y_ref)
        assert not np.array_equal(hT, h_ref)

    def test_faults_are_inert_on_a_single_chunk_without_carry(self):
        coeffs, x, _ = random_problem(20, 1, 4, 1, 2)
        y_ref, h_ref = chunked_forward(coeffs, x, 4)
        for mode in ("state-transition", "output-correction"):
            y, hT = chunked_forward(coeffs, x, 4, fault=mode)
            assert np.array_equal(y, y_ref), mode
            assert np.array_equal(hT, h_ref), mode


class TestChunkMajorEvaluation:
    """One call over every chunk equals the same chunks evaluated in pieces."""

    @pytest.mark.parametrize("t,q,splits", [
        (48, 8, (16, 40)),      # whole chunks only
        (45, 8, (8, 32)),       # ragged final chunk
        (13, 16, ()),           # k = 1, ragged
        (37, 4, (4, 8, 12)),    # many blocks, the last one ragged
    ])
    def test_block_calls_with_carried_state_are_bitwise(self, t, q, splits):
        coeffs, x, h0 = random_problem(31, 2, t, 3, 4)
        y_full, h_full = chunked_forward(coeffs, x, q, h0)
        pieces, h = [], h0
        for start, stop in zip((0,) + splits, splits + (t,)):
            y_part, h = chunked_forward(coeffs.slice_time(start, stop),
                                        x[:, start:stop], q, h)
            pieces.append(y_part)
        assert np.array_equal(np.concatenate(pieces, axis=1), y_full)
        assert np.array_equal(h, h_full)

    def test_padded_tail_changes_neither_state_nor_flops(self):
        # padding by hand to a whole chunk gives the same bits; the flop
        # count is that of the real positions, chunk by chunk
        coeffs, x, h0 = random_problem(32, 2, 13, 2, 3)
        y, hT = chunked_forward(coeffs, x, 5, h0)

        def pad(arr, value):  # two positions fill the last chunk of five
            return np.concatenate([arr, np.full((2, 2) + arr.shape[2:], value)], axis=1)

        padded = SsmCoefficients(pad(coeffs.a, 1.0), pad(coeffs.Bmat, 0.0),
                                 pad(coeffs.Cmat, 0.0))
        y_pad, h_pad = chunked_forward(padded, pad(x, 0.0), 5, h0)
        assert np.array_equal(y_pad[:, :13], y)
        assert np.array_equal(h_pad, hT)

        whole = stage_flops(2, 13, 2, 3, 5)
        by_chunk = [stage_flops(2, m, 2, 3, m)  # each one unpadded chunk
                    for m in (5, 5, 3)]
        for stage in ("intra", "propagate", "inter"):
            assert getattr(whole, stage) == sum(getattr(f, stage) for f in by_chunk)

    # the kernel runs every chunk of a call at once: each stage once per
    # call (a long layer call is tiled by stack.layer_forward instead)
    def test_stages_run_once_per_call(self, monkeypatch):
        calls = {name: 0 for name in ("intra_chunk", "propagate_states",
                                      "inter_chunk_correction")}
        for name in calls:
            original = getattr(chunked, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(chunked, name, counted)
        coeffs, x, h0 = random_problem(33, 1, 64, 2, 3)
        chunked_forward(coeffs, x, 4, h0)
        assert calls == {name: 1 for name in calls}


@contextlib.contextmanager
def mask_build(build):
    """Make every mask tile take the whole-array build ("always") or the row
    loop ("never")."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chunked, "_short_build", lambda q, slices: build == "always")
        yield


BUILDS = ("never", "always")


class TestMaskTiles:
    # the two mask builds make the same products, so the same bits, under
    # every fault mode and whether a state is passed in or not
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_both_builds_keep_every_bit(self, data):
        batch = data.draw(st.integers(1, 3), "batch")
        t = data.draw(st.integers(1, 120), "T")
        h = data.draw(st.integers(1, 3), "heads")
        q = data.draw(st.sampled_from((1, 2, 3, 4, 8, 16)), "Q")
        fault = data.draw(st.sampled_from((None,) + FAULT_MODES), "fault")
        coeffs, x, h0 = random_problem(data.draw(st.integers(0, 2**16), "seed"), batch, t, h,
                                       3, with_state=data.draw(st.booleans(), "h0"))
        with mask_build("never"):
            rows = chunked_forward(coeffs, x, q, h0, fault=fault)
        with mask_build("always"):
            whole = chunked_forward(coeffs, x, q, h0, fault=fault)
        assert np.array_equal(whole[0], rows[0])
        assert np.array_equal(whole[1], rows[1])

    # a slice is one (batch, chunk, head) mask: a vertical block of 64
    # positions at H = 2, Q = 16 has 8 and takes the whole-array build, a
    # layer tile of a batch-8 horizontal call has 1,536 and takes the row loop
    @pytest.mark.parametrize("q,slices,short", [
        (16, 8, True), (16, 16, True), (16, 17, False), (16, 512, False), (16, 128, False),
        (8, 16, True), (8, 32, False), (4, 2, False), (1, 1, False),
        (64, 4, True), (64, 8, False), (256, 1, True), (256, 2, False), (512, 1, False),
    ])
    def test_short_build_follows_the_tile_shape(self, q, slices, short):
        assert chunked._short_build(q, slices) is short

    # the whole-array build works in the mask buffer alone: a temporary the
    # size of the mask (np.multiply.accumulate copying on overlap, say) would
    # raise the traced peak
    @pytest.mark.parametrize("b,t", [(1, 64), (2, 40)])
    def test_short_build_adds_no_buffer(self, b, t):
        coeffs, x, _ = random_problem(3, b, t, 2, 4, with_state=False)
        peaks = []
        for build in BUILDS:
            with mask_build(build):
                chunked_forward(coeffs, x, 16)  # warm lazy set-up
                tracemalloc.start()
                try:
                    chunked_forward(coeffs, x, 16)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] == pytest.approx(peaks[0], rel=0.01)

    # the traced peak of a kernel call stays within the ledger's bounds (see
    # test_stack's TestLedgerAgainstTracedMemory); at Q = 4, N = 2 the mask
    # is the largest stage-1 buffer: a mask kept alive into y_intra puts the
    # peak 17% above the closed form.  At Q = 2, N = 1 every buffer is small
    # beside the per-call fixed cost the closed form leaves out, so the bound
    # is 1.56, just above the measured 1.43 (4 x 2,048) and 1.49 (2 x 256)
    @pytest.mark.parametrize("b,t,h,n,q,high", [
        (2, 4096, 2, 4, 16, 1.10), (2, 1024, 2, 2, 4, 1.10),
        # ragged lengths: y spans whole chunks, trimmed at the return
        (2, 4100, 2, 4, 16, 1.10), (3, 1001, 2, 2, 4, 1.10),
        (4, 2048, 2, 1, 2, 1.56), (2, 256, 2, 1, 2, 1.56),
    ], ids=["aligned", "q4-n2", "ragged", "ragged-q4-n2", "q2-n1", "q2-n1-short"])
    def test_traced_peak_matches_the_closed_form(self, b, t, h, n, q, high):
        coeffs, x, _ = random_problem(7, b, t, h, n, with_state=False)
        chunked_forward(coeffs, x, q)  # warm lazy set-up
        tracemalloc.start()
        try:
            chunked_forward(coeffs, x, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / (8 * workspace_elements(b, t, h, n, q))
        assert 0.95 <= ratio <= high


class TestExtremeGates:
    # the mask recursion multiplies gates along each row: at a = 1e-200 the
    # products underflow to exactly 0 after one step, at a = 1 - 1e-12 they
    # stay within ~Q * 1e-12 of one across a long chunk
    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("gate,q,t", [
        (1e-200, 16, 100),
        (1e-200, 256, 300),
        (1.0 - 1e-12, 256, 600),
        (1.0 - 1e-12, 16, 1000),
    ])
    def test_chunked_matches_the_scan(self, gate, q, t, build):
        rng = np.random.default_rng(40)
        b, h, n = 2, 2, 3
        coeffs = SsmCoefficients(np.full((b, t, h), gate),
                                 rng.standard_normal((b, t, h, n)),
                                 rng.standard_normal((b, t, h, n)))
        x = rng.standard_normal((b, t, h))
        h0 = rng.standard_normal((b, h, n))
        with mask_build(build):
            y, hT = chunked_forward(coeffs, x, q, h0)
        y_ref, h_ref = recurrent_scan(coeffs, x, h0)
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(hT))
        assert rel_err(y, y_ref) <= 1e-9
        assert rel_err(hT, h_ref) <= 1e-9


class TestKernelProperties:
    # logit 500 gives a = e^-500 < 1e-200; logit -28 gives a = 1 - 7e-13
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 3),
           t=st.integers(1, 160), q=st.sampled_from((1, 2, 3, 4, 8, 16, 64)),
           p_tiny=st.sampled_from((0.0, 0.1, 0.5)), p_one=st.sampled_from((0.0, 0.3, 1.0)))
    @settings(max_examples=50, deadline=None)
    def test_extreme_gates_and_carried_state(self, seed, batch, t, q, p_tiny, p_one):
        rng = np.random.default_rng(seed)
        h, n = 2, 3
        kind = rng.random((batch, t, h))
        logits = np.where(kind < p_tiny, 500.0,
                          np.where(kind < p_tiny + p_one, -28.0,
                                   rng.standard_normal((batch, t, h))))
        coeffs = SsmCoefficients(np.exp(-np.logaddexp(0.0, logits)),
                                 rng.standard_normal((batch, t, h, n)),
                                 rng.standard_normal((batch, t, h, n)))
        x = rng.standard_normal((batch, t, h))
        h0 = rng.standard_normal((batch, h, n))
        y_ref, h_ref = recurrent_scan(coeffs, x, h0)
        for run in (lambda: chunked_forward(coeffs, x, q, h0),
                    lambda: dense_dual(coeffs, x, h0)):
            y, hT = run()
            assert rel_err(y, y_ref) <= 1e-9
            assert rel_err(hT, h_ref) <= 1e-9
            assert np.array_equal(run()[0], y)  # a second call gives the same bits


class TestNearOneGatesAtLength:
    # gates within 1e-12 of one decay by at most ~1e-8 over 10k positions,
    # so the carried state sums almost the whole history.  The dense kernel
    # cannot span 10k positions (a 10k x 10k block per slice, above the
    # dense limit); it runs the last W positions from the scan's state there
    W = 512

    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 2),
           t=st.integers(10_000, 12_000), q=st.sampled_from((16, 64, 256)),
           p_one=st.sampled_from((0.5, 1.0)))
    @settings(max_examples=4, deadline=None)
    def test_chunked_and_dense_match_the_scan(self, seed, batch, t, q, p_one):
        rng = np.random.default_rng(seed)
        h, n, w = 2, 3, self.W
        near_one = 1.0 - rng.uniform(0.0, 1e-12, (batch, t, h))
        ordinary = np.exp(-np.logaddexp(0.0, rng.standard_normal((batch, t, h))))
        coeffs = SsmCoefficients(np.where(rng.random((batch, t, h)) < p_one, near_one, ordinary),
                                 rng.standard_normal((batch, t, h, n)),
                                 rng.standard_normal((batch, t, h, n)))
        x = rng.standard_normal((batch, t, h))
        h0 = rng.standard_normal((batch, h, n))
        y_head, h_mid = recurrent_scan(coeffs.slice_time(0, t - w), x[:, :t - w], h0)
        y_tail, h_ref = recurrent_scan(coeffs.slice_time(t - w, t), x[:, t - w:], h_mid)
        y, hT = chunked_forward(coeffs, x, q, h0)
        assert rel_err(y, np.concatenate([y_head, y_tail], axis=1)) <= 1e-9
        assert rel_err(hT, h_ref) <= 1e-9
        y_d, h_d = dense_dual(coeffs.slice_time(t - w, t), x[:, t - w:], h_mid)
        assert rel_err(y_d, y_tail) <= 1e-9
        assert rel_err(h_d, h_ref) <= 1e-9


class TestFlopScaling:
    def test_doubling_length_doubles_total_within_two_percent(self):
        totals = [stage_flops(1, t, 2, 4, 8).total for t in (64, 128, 256)]
        assert abs(totals[1] / totals[0] - 2.0) <= 0.02 * 2.0
        assert abs(totals[2] / totals[1] - 2.0) <= 0.02 * 2.0
