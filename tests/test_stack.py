"""Layer math, the two inference schedules, memory accounting, snapshots."""

import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdkit import (
    DEFAULT_DENSE_LIMIT,
    FAULT_MODES,
    CapacityError,
    DimensionError,
    FlopCounter,
    FormatError,
    LayerParams,
    ModelSpec,
    StackedModel,
    ValidationError,
    chunked_forward,
    export_state_snapshot,
    generate_coefficients,
    generate_model,
    horizontal_infer,
    import_state_snapshot,
    infer,
    layer_forward,
    layer_shapes,
    load_state_snapshot,
    random_coefficients,
    recurrent_scan,
    save_state_snapshot,
    stage_flops,
    vertical_infer,
)
from ssdkit import chunked, stack
from ssdkit.stack import KERNELS, RMS_EPS


def rel_err(got, ref):
    return np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-30)


def tiny_params(seed, h=2, d=8, n=3, **overrides):
    rng = np.random.default_rng(seed)
    fields = {
        "w_a": rng.standard_normal((h, d)) / np.sqrt(d),
        "b_a": rng.standard_normal(h),
        "W_B": rng.standard_normal((h, n, d)) / np.sqrt(d),
        "W_C": rng.standard_normal((h, n, d)) / np.sqrt(d),
        "W_x": rng.standard_normal((h, d)) / np.sqrt(d),
        "W_out": rng.standard_normal((h, d)) / np.sqrt(h),
        "gamma": np.ones(d),
    }
    fields.update(overrides)
    return LayerParams(**fields)


def tokens_for(spec, t, batch=1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, spec.vocab_size - 1, size=(batch, t))


class TestModelSpec:
    def test_defaults_are_consistent(self):
        spec = ModelSpec()
        assert spec.V % spec.Q == 0
        assert spec.eos_id == spec.vocab_size - 1

    def test_rejects_block_not_multiple_of_chunk(self):
        with pytest.raises(ValidationError):
            ModelSpec(Q=16, V=24)

    def test_rejects_degenerate_vocabulary(self):
        with pytest.raises(ValidationError):
            ModelSpec(vocab_size=1)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError):
            ModelSpec(seed=-1)

    @pytest.mark.parametrize("field,value", [
        ("L", 2.0), ("d", 16.5), ("H", True), ("N", "4"), ("Q", np.float64(16)),
        ("seed", False), ("V", None),
    ])
    def test_rejects_non_integer_fields(self, field, value):
        with pytest.raises(ValidationError, match=field):
            ModelSpec(**{field: value})

    def test_the_dense_limit_is_not_a_field(self):
        # DEFAULT_DENSE_LIMIT is the one dense limit; no spec carries another
        with pytest.raises(TypeError, match="dense_limit"):
            ModelSpec(dense_limit=DEFAULT_DENSE_LIMIT)

    def test_accepts_numpy_integers_as_python_ints(self):
        spec = ModelSpec(seed=np.uint64(3), L=np.int32(2), Q=np.int64(8), V=np.int8(16))
        assert spec == ModelSpec(seed=3, L=2, Q=8, V=16)
        assert type(spec.L) is int and type(spec.seed) is int


class TestLayerParams:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            tiny_params(0, b_a=np.zeros(3))  # heads is 2 everywhere else
        with pytest.raises(DimensionError):
            tiny_params(0, gamma=np.ones(5))

    def test_dimension_properties(self):
        p = tiny_params(0, h=3, d=10, n=4)
        assert (p.heads, p.d, p.state_dim) == (3, 10, 4)


class TestCoefficientProjection:
    def test_zero_input_with_zero_bias_gives_half_gate(self):
        # softplus(0) = log 2, and exp(-log 2) lands on one half
        p = tiny_params(1, b_a=np.zeros(2))
        coeffs, _ = generate_coefficients(p, np.zeros((1, 4, 8)), 4)
        assert np.all(np.abs(coeffs.a - 0.5) < 1e-15)

    def test_non_unit_gamma_matches_a_per_position_reference(self):
        # generate_model and tiny_params otherwise set gamma to ones, so a
        # projection that dropped gamma would pass every other test
        rng = np.random.default_rng(13)
        p = tiny_params(13, gamma=rng.uniform(0.25, 4.0, 8))
        u = rng.standard_normal((2, 11, 8))
        coeffs, x = generate_coefficients(p, u, 4)
        for bi in range(2):
            for t in range(11):
                un = u[bi, t] / np.sqrt(np.mean(u[bi, t] ** 2) + RMS_EPS) * p.gamma
                gate = 1.0 / (1.0 + np.exp(p.w_a @ un + p.b_a))
                for got, ref in ((coeffs.a[bi, t], gate), (coeffs.Bmat[bi, t], p.W_B @ un),
                                 (coeffs.Cmat[bi, t], p.W_C @ un), (x[bi, t], p.W_x @ un)):
                    assert rel_err(got, ref) <= 1e-12

    def test_gates_stay_inside_the_open_unit_interval(self):
        # about a million projected gates from heavy-tailed inputs
        p = tiny_params(21, h=8, d=16, n=2)
        rng = np.random.default_rng(21)
        u = rng.standard_normal((16, 8192, 16)) * 10.0
        coeffs, _ = generate_coefficients(p, u, DEFAULT_DENSE_LIMIT)
        assert coeffs.a.size == 16 * 8192 * 8
        assert np.all(coeffs.a > 0.0)
        assert np.all(coeffs.a < 1.0)

    def test_zero_input_map_produces_zero_state_tensors(self):
        p = tiny_params(2, W_B=np.zeros((2, 3, 8)))
        rng = np.random.default_rng(2)
        coeffs, _ = generate_coefficients(p, rng.standard_normal((1, 6, 8)), 6)
        assert np.array_equal(coeffs.Bmat, np.zeros((1, 6, 2, 3)))

    def test_rejects_wrong_channel_count(self):
        p = tiny_params(3)
        with pytest.raises(DimensionError):
            generate_coefficients(p, np.zeros((1, 4, 9)), 4)

    @pytest.mark.parametrize("chunk_size", [0, -4])
    def test_rejects_non_positive_chunk_size(self, chunk_size):
        with pytest.raises(ValidationError):
            generate_coefficients(tiny_params(3), np.zeros((1, 4, 8)), chunk_size)

    @pytest.mark.parametrize("chunk_size", [2.0, True])
    def test_rejects_a_non_integer_chunk_size(self, chunk_size):
        with pytest.raises(ValidationError, match="chunk size must be an integer"):
            generate_coefficients(tiny_params(3), np.zeros((1, 4, 8)), chunk_size)

    @pytest.mark.parametrize("bias,gate", [(800.0, 0.0), (-800.0, 1.0)])
    def test_gate_saturates_without_warnings(self, bias, gate):
        # e^800 overflows to inf, which must read as a = 0, not as a warning
        p = tiny_params(7, b_a=np.full(2, bias))
        u = np.random.default_rng(7).standard_normal((2, 9, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs, _ = generate_coefficients(p, u, 9)
        assert np.all(coeffs.a == gate)


class TestProjectionRowInvariance:
    # A single BLAS product over all rows is not row-slice invariant, so the
    # projections run per chunk; any chunk-aligned slice must then reproduce
    # the same rows of the whole call bit for bit, ragged tail included
    LAYER = generate_model(ModelSpec(seed=42, L=4, d=16, H=2, N=4, vocab_size=64,
                                     Q=16, V=64)).layers[0]

    @pytest.mark.parametrize("batch,t,q", [(1, 4096, 16), (8, 4096, 16), (3, 77, 3)])
    def test_chunk_aligned_slices_match_the_whole_call_bitwise(self, batch, t, q):
        u = np.random.default_rng(t + batch).standard_normal((batch, t, 16))
        coeffs, x = generate_coefficients(self.LAYER, u, q)
        whole = (coeffs.a, coeffs.Bmat, coeffs.Cmat, x)
        for span in (q, 4 * q):
            for s in range(0, t, span):
                part, xs = generate_coefficients(self.LAYER, u[:, s:s + span], q)
                for got, ref in zip((part.a, part.Bmat, part.Cmat, xs), whole):
                    assert np.array_equal(got, ref[:, s:s + span])

    @pytest.mark.parametrize("batch,t,q", [(1, 4096, 16), (8, 4096, 16), (3, 77, 3)])
    def test_layer_output_of_chunk_aligned_slices_matches_the_whole_call(self, batch, t, q):
        # the output products run per chunk too; slices carry the state
        u = np.random.default_rng(t + batch).standard_normal((batch, t, 16))
        v, hT = layer_forward(self.LAYER, u, None, q)
        for span in (q, 4 * q):
            state = None
            for s in range(0, t, span):
                part, state = layer_forward(self.LAYER, u[:, s:s + span], state, q)
                assert np.array_equal(part, v[:, s:s + span])
            assert np.array_equal(state, hT)

    # a ragged call is padded to whole chunks and trimmed, so every prefix
    # gives the first rows of the whole call, and those rows are the
    # coefficients layer_forward's kernel reads
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_prefix_gives_the_rows_the_kernel_reads(self, data):
        batch = data.draw(st.integers(1, 3), "batch")
        t = data.draw(st.integers(1, 200), "T")
        q = data.draw(st.sampled_from((1, 3, 4, 16, 32)), "Q")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), "seed"))
        u = rng.standard_normal((batch, t, 16))
        coeffs, x = generate_coefficients(self.LAYER, u, q)
        whole = (coeffs.a, coeffs.Bmat, coeffs.Cmat, x)
        fed = []

        def spy(c, xs, *args, **kwargs):
            fed.append((c.a, c.Bmat, c.Cmat, xs))
            return chunked_forward(c, xs, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stack, "chunked_forward", spy)
            layer_forward(self.LAYER, u, None, q)
        for got, ref in zip(whole, fed[0]):
            assert np.array_equal(got, ref[:, :t])
        for s in range(1, t):
            part, xs = generate_coefficients(self.LAYER, u[:, :s], q)
            for got, ref in zip((part.a, part.Bmat, part.Cmat, xs), whole):
                assert np.array_equal(got, ref[:, :s]), s

    # an aligned call is one np.matmul over the (batch, chunks, Q, k) view;
    # its bits are those of one product per chunk
    @pytest.mark.parametrize("operand", ["w_gate", "W_in", "W_out"])
    @pytest.mark.parametrize("batch,t,q", [(1, 64, 16), (3, 24, 4), (2, 16, 16)])
    def test_an_aligned_chunk_matmul_is_one_product_per_chunk(self, operand, batch, t, q):
        w = getattr(self.LAYER, operand)
        w = w if operand == "W_out" else w.T
        x = np.random.default_rng(t).standard_normal((batch, t, w.shape[0]))
        got = stack._chunk_matmul(x, w, q)
        for i in range(batch):
            for lo in range(0, t, q):
                assert np.array_equal(got[i, lo:lo + q], np.matmul(x[i, lo:lo + q], w))


class TestLayerForward:
    def test_zero_input_map_passes_residual_through(self):
        # with B == 0 no input reaches the state, so y = 0 and v = u
        p = tiny_params(4, W_B=np.zeros((2, 3, 8)))
        rng = np.random.default_rng(4)
        u = rng.standard_normal((2, 10, 8))
        v, hT = layer_forward(p, u, chunk_size=4)
        assert np.array_equal(v, u)
        assert np.array_equal(hT, np.zeros((2, 2, 3)))

    def test_state_decays_through_a_silent_layer(self):
        # B == 0 again, but a nonzero entering state must decay by the
        # running gate product, step by step
        p = tiny_params(5, W_B=np.zeros((2, 3, 8)))
        rng = np.random.default_rng(5)
        u = rng.standard_normal((1, 7, 8))
        h0 = rng.standard_normal((1, 2, 3))
        _, hT = layer_forward(p, u, h0, 7, kernel="recurrent")
        coeffs, _ = generate_coefficients(p, u, 7)
        expected = h0.copy()
        for t in range(7):
            expected = coeffs.a[:, t, :, None] * expected
        assert np.array_equal(hT, expected)

    def test_kernels_agree(self):
        p = tiny_params(6)
        rng = np.random.default_rng(6)
        u = rng.standard_normal((2, 24, 8))
        h0 = rng.standard_normal((2, 2, 3))
        v_r, h_r = layer_forward(p, u, h0, 24, kernel="recurrent")
        v_c, h_c = layer_forward(p, u, h0, chunk_size=8, kernel="chunked")
        v_d, h_d = layer_forward(p, u, h0, chunk_size=24)  # one chunk: the dense form
        assert rel_err(v_c, v_r) <= 1e-12 and rel_err(h_c, h_r) <= 1e-12
        assert rel_err(v_d, v_r) <= 1e-12 and rel_err(h_d, h_r) <= 1e-12

    def test_split_halves_thread_the_state_exactly(self):
        p = tiny_params(9)
        rng = np.random.default_rng(9)
        u = rng.standard_normal((1, 24, 8))
        h0 = rng.standard_normal((1, 2, 3))
        v_full, h_full = layer_forward(p, u, h0, 24, kernel="recurrent")
        v_a, h_a = layer_forward(p, u[:, :11], h0, 11, kernel="recurrent")
        v_b, h_b = layer_forward(p, u[:, 11:], h_a, 13, kernel="recurrent")
        assert np.array_equal(np.concatenate([v_a, v_b], axis=1), v_full)
        assert np.array_equal(h_b, h_full)

    def test_split_at_chunk_boundary_is_bitwise_for_chunked_kernel(self):
        # an 8|16 split keeps every chunk boundary in place, so stage inputs
        # are identical values and the outputs match bit for bit
        p = tiny_params(9)
        rng = np.random.default_rng(10)
        u = rng.standard_normal((1, 24, 8))
        v_full, h_full = layer_forward(p, u, chunk_size=8)
        v_a, h_a = layer_forward(p, u[:, :8], chunk_size=8)
        v_b, h_b = layer_forward(p, u[:, 8:], h_a, chunk_size=8)
        assert np.array_equal(np.concatenate([v_a, v_b], axis=1), v_full)
        assert np.array_equal(h_b, h_full)

    # every layer call takes its chunk, under either kernel and at any
    # length; a missing one is refused first, before the input is read, so
    # neither a CapacityError over the dense limit nor a DimensionError
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("shape", [(1, 4, 8), (1, DEFAULT_DENSE_LIMIT + 1, 8), (1, 4, 9)],
                             ids=["short", "over-dense-limit", "wrong-channels"])
    def test_every_kernel_requires_a_chunk_size(self, kernel, shape):
        p = tiny_params(11)
        with pytest.raises(ValidationError, match="^chunk_size is required$"):
            layer_forward(p, np.zeros(shape), None, None, kernel=kernel)
        with pytest.raises(ValidationError, match="^chunk_size is required$"):
            layer_forward(p, np.zeros(shape), kernel=kernel)

    @pytest.mark.parametrize("shape", [(1, 4, 8), (1, 4, 9)], ids=["short", "wrong-channels"])
    def test_generate_coefficients_requires_a_chunk_size(self, shape):
        with pytest.raises(ValidationError, match="^chunk_size is required$"):
            generate_coefficients(tiny_params(11), np.zeros(shape), None)
        with pytest.raises(TypeError):  # no default
            generate_coefficients(tiny_params(11), np.zeros(shape))

    def test_unknown_kernel_rejected(self):
        p = tiny_params(11)
        with pytest.raises(ValidationError):
            layer_forward(p, np.zeros((1, 4, 8)), chunk_size=2, kernel="fft")

    # one tile at the module's budget, and tiles of one chunk
    @pytest.mark.parametrize("chunks", [None, 1])
    def test_the_input_is_left_untouched_by_default(self, chunks):
        p = tiny_params(12)
        u = np.random.default_rng(12).standard_normal((2, 22, 8))
        kept = u.copy()
        with layer_tiles(chunks, 2, 4):
            v, _ = layer_forward(p, u, chunk_size=4)
            assert not np.shares_memory(v, u)
            assert np.array_equal(u, kept)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("chunks", [None, 1])
    def test_overwrite_input_returns_the_input_buffer_with_the_same_bits(self, kernel, chunks):
        p = tiny_params(13)
        rng = np.random.default_rng(13)
        u, h0 = rng.standard_normal((2, 22, 8)), rng.standard_normal((2, 2, 3))
        with layer_tiles(chunks, 2, 4):
            v, hT = layer_forward(p, u, h0, 4, kernel=kernel)
            u_out, h_out = layer_forward(p, u, h0, 4, kernel=kernel, overwrite_input=True)
        assert u_out is u
        assert np.array_equal(u, v)
        assert np.array_equal(h_out, hT)

    def test_overwrite_input_converts_a_float32_input_into_a_new_buffer(self):
        # a u that is not float64 is converted first, so the call writes over
        # the converted buffer and leaves the caller's u as it was
        p = tiny_params(13)
        u = np.random.default_rng(13).standard_normal((2, 22, 8)).astype(np.float32)
        kept = u.copy()
        v, hT = layer_forward(p, u, chunk_size=4, overwrite_input=True)
        assert v is not u
        assert np.array_equal(u, kept)
        v64, h64 = layer_forward(p, u.astype(np.float64), chunk_size=4)
        assert np.array_equal(v, v64)
        assert np.array_equal(hT, h64)

    @pytest.mark.parametrize("value", [1, 0, None, "yes", np.True_])
    def test_overwrite_input_must_be_a_bool(self, value):
        with pytest.raises(ValidationError, match="overwrite_input must be a bool"):
            layer_forward(tiny_params(14), np.zeros((1, 4, 8)), chunk_size=2,
                          overwrite_input=value)

    def test_overwrite_input_refuses_a_read_only_input(self):
        u = np.zeros((1, 4, 8))
        u.flags.writeable = False
        with pytest.raises(ValidationError, match="writeable"):
            layer_forward(tiny_params(14), u, chunk_size=2, overwrite_input=True)
        assert layer_forward(tiny_params(14), u, chunk_size=2)[0].flags.writeable


@contextmanager
def layer_tiles(chunks, h, q):
    """Make layer_forward run its calls in tiles of ``chunks`` chunks (the
    module's budget when None).  infer's closed forms read the budget but
    are cached by block shape alone, so the cache is cleared when the budget
    is rewritten and again when it is restored."""
    with pytest.MonkeyPatch.context() as mp:
        if chunks is not None:
            mp.setattr(stack, "_MASK_ELEMENTS_PER_ROW", chunks * h * q * q)
        stack._block_forms.cache_clear()
        try:
            yield
        finally:
            mp.undo()
            stack._block_forms.cache_clear()


class TestLayerTiles:
    # a layer call split into tiles of whole chunks gives the bits of the
    # one-tile call: each tile's products and kernel call see the chunks
    # the whole call would, and the state carried between tiles is the one
    # the kernel carries between those chunks
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_tiles_keep_every_bit(self, data):
        batch = data.draw(st.integers(1, 3), "batch")
        t = data.draw(st.integers(1, 120), "T")
        h = data.draw(st.integers(1, 3), "heads")
        q = data.draw(st.sampled_from((1, 2, 3, 4, 8, 16)), "Q")
        kernel = data.draw(st.sampled_from(KERNELS), "kernel")
        fault = (data.draw(st.sampled_from((None,) + FAULT_MODES), "fault")
                 if kernel == "chunked" else None)
        chunks = data.draw(st.sampled_from((1, 2, 3)), "chunks per tile")
        seed = data.draw(st.integers(0, 2**16), "seed")
        p = tiny_params(seed, h=h)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((batch, t, 8))
        h0 = rng.standard_normal((batch, h, 3)) if data.draw(st.booleans(), "h0") else None
        with layer_tiles(-(-t // q), h, q):
            whole = layer_forward(p, u, h0, q, kernel=kernel, fault=fault)
        with layer_tiles(chunks, h, q):
            tiled = layer_forward(p, u, h0, q, kernel=kernel, fault=fault)
        assert np.array_equal(tiled[0], whole[0])
        assert np.array_equal(tiled[1], whole[1])

    # one tile at the module's budget against tiles of one chunk, under
    # every fault mode; state-transition runs stage 2 with every multiplier 1
    @pytest.mark.parametrize("fault", (None,) + FAULT_MODES)
    @pytest.mark.parametrize("with_state", [False, True])
    @pytest.mark.parametrize("b,t,h,q", [(1, 64, 2, 16), (3, 24, 3, 4), (2, 8, 1, 8), (2, 13, 2, 4)])
    def test_one_tile_matches_one_chunk_tiles(self, b, t, h, q, with_state, fault):
        p = tiny_params(t + q, h=h)
        rng = np.random.default_rng(t + q)
        u = rng.standard_normal((b, t, 8))
        h0 = rng.standard_normal((b, h, 3)) if with_state else None
        assert stack._tile_chunks(h, q) * q >= t  # one tile at the module's budget
        v, hT = layer_forward(p, u, h0, q, fault=fault)
        with layer_tiles(1, h, q):
            v_tiled, h_tiled = layer_forward(p, u, h0, q, fault=fault)
        assert np.array_equal(v, v_tiled)
        assert np.array_equal(hT, h_tiled)


class TestHorizontalInfer:
    def test_single_layer_stack_is_one_layer_call(self):
        spec = ModelSpec(seed=7, L=1, d=8, H=2, N=3, vocab_size=32, Q=4, V=8)
        model = generate_model(spec)
        tok = tokens_for(spec, 12)
        result = horizontal_infer(model, tok)
        u = model.embedding[tok]
        v, hT = layer_forward(model.layers[0], u, chunk_size=spec.Q)
        assert np.array_equal(result.hidden, v)
        assert np.array_equal(result.states[0], hT)

    def test_accepts_flat_token_lists(self):
        spec = ModelSpec(seed=7, L=1, d=8, H=2, N=3, vocab_size=32, Q=4, V=8)
        model = generate_model(spec)
        a = horizontal_infer(model, [1, 2, 3, 4])
        b = horizontal_infer(model, np.array([[1, 2, 3, 4]]))
        assert np.array_equal(a.hidden, b.hidden)

    @pytest.mark.parametrize("chunk_size", [4.0, True, "4"])
    def test_rejects_a_non_integer_chunk_size(self, chunk_size):
        spec = ModelSpec(seed=7, L=1, d=8, H=2, N=3, vocab_size=32, Q=4, V=8)
        with pytest.raises(ValidationError, match="chunk size must be an integer"):
            horizontal_infer(generate_model(spec), tokens_for(spec, 12), chunk_size)

    def test_rejects_bad_tokens(self):
        spec = ModelSpec(seed=7, L=1, d=8, H=2, N=3, vocab_size=32, Q=4, V=8)
        model = generate_model(spec)
        with pytest.raises(ValidationError):
            horizontal_infer(model, [])
        with pytest.raises(ValidationError):
            horizontal_infer(model, [0.5, 1.5])
        with pytest.raises(ValidationError):
            horizontal_infer(model, [31, 32])  # one past the last id
        with pytest.raises(ValidationError):
            horizontal_infer(model, [-1])

    def test_ledger_balances_and_peak_scales_linearly(self):
        spec = ModelSpec(seed=8, L=4, d=16, H=2, N=4, vocab_size=64, Q=8, V=32)
        model = generate_model(spec)
        peaks = {}
        for t in (64, 128):
            result = horizontal_infer(model, tokens_for(spec, t))
            peaks[t] = result.ledger.peak_elements
        ratio = peaks[128] / peaks[64]
        assert 1.9 <= ratio <= 2.1

    def test_kernel_choice_does_not_change_the_answer(self):
        spec = ModelSpec(seed=8, L=3, d=16, H=2, N=4, vocab_size=64, Q=8, V=32)
        model = generate_model(spec)
        tok = tokens_for(spec, 40)
        ref = horizontal_infer(model, tok, kernel="recurrent")
        for chunk in (spec.Q, 40):  # chunked, and one chunk spanning the call
            got = horizontal_infer(model, tok, chunk)
            assert rel_err(got.hidden, ref.hidden) <= 1e-9
            assert rel_err(got.states, ref.states) <= 1e-9


class TestVerticalInfer:
    SPEC = ModelSpec(seed=12, L=4, d=16, H=2, N=4, vocab_size=64, Q=8, V=32)

    def check_matches_horizontal_bitwise(self, model):
        # same chunk boundaries, same per-chunk arithmetic, different order
        # of traversal only; the numbers come out identical
        tok = tokens_for(self.SPEC, 100)
        h = horizontal_infer(model, tok, kernel="chunked")
        got_blocks = []
        v = vertical_infer(model, tok, sink=lambda s, block: got_blocks.append((s, block)))
        full = np.concatenate([b for _, b in sorted(got_blocks)], axis=1)
        assert np.array_equal(full, h.hidden)
        assert np.array_equal(v.states, h.states)
        assert np.array_equal(v.hidden, h.hidden[:, -v.hidden.shape[1]:])

    def test_matches_horizontal_bitwise(self):
        self.check_matches_horizontal_bitwise(generate_model(self.SPEC))

    def test_matches_horizontal_bitwise_with_non_unit_gamma(self):
        # gamma is folded into the projection operands when a layer is built
        model = generate_model(self.SPEC)
        rng = np.random.default_rng(12)
        names = layer_shapes(self.SPEC.H, self.SPEC.d, self.SPEC.N)
        self.check_matches_horizontal_bitwise(StackedModel(self.SPEC, model.embedding, [
            LayerParams(**{**{name: getattr(layer, name) for name in names},
                           "gamma": rng.uniform(0.25, 4.0, self.SPEC.d)})
            for layer in model.layers]))

    def test_flop_totals_match_horizontal_exactly(self):
        model = generate_model(self.SPEC)
        tok = tokens_for(self.SPEC, 100)
        h = horizontal_infer(model, tok)
        v = vertical_infer(model, tok)
        assert (v.flops.intra, v.flops.propagate, v.flops.inter) == \
               (h.flops.intra, h.flops.propagate, h.flops.inter)

    def test_peak_memory_is_flat_in_sequence_length(self):
        model = generate_model(self.SPEC)
        peaks = [vertical_infer(model, tokens_for(self.SPEC, t)).ledger.peak_elements
                 for t in (64, 128, 256)]
        assert peaks[0] == peaks[1] == peaks[2]

    def test_ledger_reports_carried_state_block(self):
        model = generate_model(self.SPEC)
        result = vertical_infer(model, tokens_for(self.SPEC, 96))
        spec = self.SPEC
        assert result.ledger.per_layer_state_elements == spec.L * 1 * spec.H * spec.N

    def test_short_sequence_delegates_bitwise(self):
        model = generate_model(self.SPEC)
        tok = tokens_for(self.SPEC, 20)  # 20 <= V = 32
        h = horizontal_infer(model, tok)
        v = vertical_infer(model, tok)
        assert np.array_equal(v.hidden, h.hidden)
        assert np.array_equal(v.states, h.states)

    def test_sink_sees_the_single_delegated_block(self):
        model = generate_model(self.SPEC)
        tok = tokens_for(self.SPEC, 20)
        blocks = []
        vertical_infer(model, tok, sink=lambda s, b: blocks.append((s, b)))
        assert len(blocks) == 1 and blocks[0][0] == 0
        assert blocks[0][1].shape == (1, 20, self.SPEC.d)

    def test_continuation_matches_the_single_call(self):
        model = generate_model(self.SPEC)
        tok = tokens_for(self.SPEC, 96)
        whole = vertical_infer(model, tok)
        first = vertical_infer(model, tok[:, :64])
        second = vertical_infer(model, tok[:, 64:], initial_states=first.states)
        assert np.array_equal(second.hidden, whole.hidden)
        assert np.array_equal(second.states, whole.states)

    def test_block_must_be_multiple_of_chunk(self):
        model = generate_model(self.SPEC)
        with pytest.raises(ValidationError):
            vertical_infer(model, tokens_for(self.SPEC, 64), block_len=12)

    @pytest.mark.parametrize("chunk_size", [0, -4])
    def test_rejects_non_positive_chunk_size(self, chunk_size):
        # checked before the block length is reduced modulo the chunk size
        model = generate_model(self.SPEC)
        with pytest.raises(ValidationError, match="chunk size must be >= 1"):
            infer(model, tokens_for(self.SPEC, 64), 64, chunk_size)

    def test_initial_states_shape_checked(self):
        model = generate_model(self.SPEC)
        with pytest.raises(DimensionError):
            vertical_infer(model, tokens_for(self.SPEC, 64),
                           initial_states=np.zeros((2, 1, 2, 4)))

    def test_complex_initial_states_are_refused(self):
        # converted, they would run with the imaginary part dropped
        model = generate_model(self.SPEC)
        with pytest.raises(ValidationError, match="initial_states must hold real numbers"):
            vertical_infer(model, tokens_for(self.SPEC, 64),
                           initial_states=np.zeros((self.SPEC.L, 1, 2, 4), complex))

    @pytest.mark.parametrize("name,kwargs", [
        ("block length", {"block_len": 64.0}), ("block length", {"block_len": True}),
        ("chunk size", {"chunk_size": 16.0}), ("chunk size", {"chunk_size": True}),
    ])
    def test_rejects_non_integer_block_and_chunk_lengths(self, name, kwargs):
        model = generate_model(self.SPEC)
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            vertical_infer(model, tokens_for(self.SPEC, 64), **kwargs)

    def test_numpy_integer_lengths_are_accepted(self):
        model = generate_model(self.SPEC)
        tok = tokens_for(self.SPEC, 100)
        got = vertical_infer(model, tok, np.int64(32), np.int32(16))
        want = vertical_infer(model, tok, 32, 16)
        assert np.array_equal(got.hidden, want.hidden)
        assert np.array_equal(got.states, want.states)


def infer_blocks(*args, **kwargs):
    """infer, plus the sink's blocks concatenated in sequence order."""
    blocks = []
    result = infer(*args, sink=lambda start, block: blocks.append(block), **kwargs)
    return result, np.concatenate(blocks, axis=1)


class TestInferProperties:
    SPEC = ModelSpec(seed=14, L=2, d=8, H=2, N=3, vocab_size=32, Q=4, V=8)
    MODEL = generate_model(SPEC)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_schedule_matches_the_recurrence_and_resumes(self, data):
        batch = data.draw(st.sampled_from((1, 2)), "batch")
        t = data.draw(st.integers(2, 120), "T")
        q = data.draw(st.sampled_from((1, 2, 4, 8, 16)), "Q")
        block = data.draw(st.sampled_from((None,) + tuple(q * m for m in range(1, 5))),
                          "block_len")
        kernel = data.draw(st.sampled_from(KERNELS), "kernel")
        s = data.draw(st.integers(1, t - 1), "split")
        tok = tokens_for(self.SPEC, t, batch, seed=data.draw(st.integers(0, 2**16), "seed"))
        model = self.MODEL

        ref = infer(model, tok, None, q, kernel="recurrent")
        whole, hidden = infer_blocks(model, tok, block, q, kernel=kernel)
        assert rel_err(hidden, ref.hidden) <= 1e-9
        assert rel_err(whole.states, ref.states) <= 1e-9
        assert np.array_equal(whole.hidden, hidden[:, -whole.hidden.shape[1]:])

        head = infer(model, tok[:, :s], block, q, kernel=kernel)
        tail, tail_hidden = infer_blocks(model, tok[:, s:], block, q, kernel=kernel,
                                         initial_states=head.states)
        assert rel_err(tail_hidden, hidden[:, s:]) <= 1e-9
        assert rel_err(tail.states, whole.states) <= 1e-9
        if block is not None and s % block == 0:
            # the tail's blocks are the whole call's blocks, same entering states
            assert np.array_equal(tail_hidden, hidden[:, s:])
            assert np.array_equal(tail.states, whole.states)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_chunked_schedules_are_bitwise_at_every_length(self, data):
        # every chunked layer call runs whole chunks, a ragged tail padded with
        # rows that change nothing, so the same chunks give the same bits: any
        # block length, a resume at any chunk boundary, and the first rows of
        # a longer call
        batch = data.draw(st.sampled_from((1, 2)), "batch")
        t = data.draw(st.integers(2, 120), "T")
        q = data.draw(st.sampled_from((1, 2, 3, 4, 8, 16)), "Q")
        block = q * data.draw(st.integers(1, 5), "block_len / Q")
        s = q * data.draw(st.integers(0, (t - 1) // q), "split / Q")
        extra = data.draw(st.integers(1, 2 * q), "extra")
        tok = tokens_for(self.SPEC, t + extra, batch, seed=data.draw(st.integers(0, 2**16), "seed"))
        model = self.MODEL

        whole, hidden = infer_blocks(model, tok[:, :t], None, q)
        blocks, blocks_hidden = infer_blocks(model, tok[:, :t], block, q)
        assert np.array_equal(blocks_hidden, hidden)
        assert np.array_equal(blocks.states, whole.states)
        if s:
            head = infer(model, tok[:, :s], block, q)
            tail, tail_hidden = infer_blocks(model, tok[:, s:t], block, q,
                                             initial_states=head.states)
            assert np.array_equal(tail_hidden, hidden[:, s:])
            assert np.array_equal(tail.states, whole.states)
        assert np.array_equal(infer(model, tok, None, q).hidden[:, :t], hidden)

    # a layer call at chunk_size = T runs one chunk spanning the call, its
    # projections included, so its kernel is the dense form, dense_dual, on
    # the coefficients generate_coefficients gives at that chunk
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_one_chunk_layer_call_runs_the_dense_form(self, data):
        batch = data.draw(st.sampled_from((1, 2)), "batch")
        t = data.draw(st.integers(1, 120), "T")
        seed = data.draw(st.integers(0, 2**16), "seed")
        layer = self.MODEL.layers[0]
        u = self.MODEL.embedding[tokens_for(self.SPEC, t, batch, seed=seed)]
        h0 = None
        if data.draw(st.booleans(), "carried"):
            h0 = np.random.default_rng(seed).standard_normal((batch, self.SPEC.H, self.SPEC.N))
        coeffs, x = generate_coefficients(layer, u, t)
        y, h_dense = chunked.dense_dual(coeffs, x, h0)
        v, h = layer_forward(layer, u, h0, t)
        assert np.array_equal(h, h_dense)
        assert np.array_equal(v, u + stack._chunk_matmul(y, layer.W_out, t))

    # the recurrent kernel's projections run a ragged call padded to whole
    # chunks too (its scan reads the real rows only), so they have the shapes
    # of a longer call's and give its bits
    @pytest.mark.parametrize("q", [2, 3, 5, 8, 16])
    def test_ragged_recurrent_rows_match_a_longer_call(self, q):
        tok = tokens_for(self.SPEC, 97 + q, seed=q)
        for t in range(2, 98, 5):
            if t % q:
                short = infer(self.MODEL, tok[:, :t], None, q, kernel="recurrent")
                longer = infer(self.MODEL, tok[:, :t + q], None, q, kernel="recurrent")
                assert np.array_equal(short.hidden, longer.hidden[:, :t]), t

    # a scan of the padding cost a tile its chunks x Q steps: 6 tokens at
    # Q = 4,096 scanned 4,096 steps a layer (54 ms, against 0.5 ms at Q = 8)
    @pytest.mark.parametrize("q", [8, 512])
    @pytest.mark.parametrize("t,chunks", [(6, None), (37, 1), (1029, 2)])
    def test_recurrent_tiles_scan_their_real_rows(self, monkeypatch, q, t, chunks):
        seen = []
        original = stack.recurrent_scan

        def recorded(coeffs, x, h0=None):
            seen.append(coeffs.length)
            return original(coeffs, x, h0)

        monkeypatch.setattr(stack, "recurrent_scan", recorded)
        tok = tokens_for(self.SPEC, t, seed=q)
        with layer_tiles(chunks, self.SPEC.H, q):
            result = infer(self.MODEL, tok, None, q, kernel="recurrent")
            span = stack._tile_chunks(self.SPEC.H, q) * q
            chunked_result = infer(self.MODEL, tok, None, q)
        assert seen == [min(span, t - lo) for lo in range(0, t, span)] * self.SPEC.L
        assert rel_err(result.hidden, chunked_result.hidden) < 1e-12
        assert rel_err(result.states, chunked_result.states) < 1e-12


def traced_peak_bytes(fn, *args, **kwargs):
    """Run fn under tracemalloc (NumPy reports its buffers to it); return
    (result, peak bytes allocated during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLedgerPeaks:
    # Literal peaks of the per-buffer ledger (every buffer charged when made
    # and discharged when dropped) that the closed form replaced; the closed
    # form must keep reproducing them.  A ragged chunked block's layer
    # buffers are charged at its length rounded up to whole chunks, as
    # layer_forward runs it, so the two ragged vertical cases peak at a full
    # block's; its residual stream, written over by each layer's output, is
    # charged at the real length.  So is the ragged recurrent case (40 = 13 x
    # 3 + 1, run as 42 rows): it peaks in the projection phase, 960 + 3024 +
    # 36, as layer_forward frees a, B, C and x before forming v.  The Q = 1
    # case at batch 3 peaks in stage 2, which holds a chunk-first copy of
    # b_intra (288 elements) beside its states.
    SPEC = ModelSpec(seed=3, L=2, d=8, H=2, N=3, vocab_size=32, Q=4, V=8)

    @pytest.mark.parametrize("kernel,batch,t,q,v,carried,peak", [
        ("chunked", 1, 50, 16, None, False, 3892),
        ("recurrent", 3, 40, 3, None, True, 4020),
        ("chunked", 1, 37, 37, None, False, 3866),
        ("chunked", 3, 96, 3, 24, False, 2772),
        ("chunked", 1, 64, 16, 32, True, 2008),
        ("chunked", 1, 136, 16, 48, True, 3006),
        ("chunked", 3, 47, 3, 12, True, 1404),
        ("chunked", 3, 60, 1, 16, False, 2262),
    ])
    def test_peak_is_pinned(self, kernel, batch, t, q, v, carried, peak):
        spec = self.SPEC
        rng = np.random.default_rng(t)
        tok = rng.integers(0, spec.vocab_size - 1, size=(batch, t))
        states = rng.standard_normal((spec.L, batch, spec.H, spec.N)) if carried else None
        result = infer(generate_model(spec), tok, v, q, kernel=kernel, initial_states=states)
        assert result.ledger.peak_elements == peak
        assert result.ledger.per_layer_state_elements == spec.L * batch * spec.H * spec.N

    @pytest.mark.parametrize("batch,q,v", [(1, 4, 16), (3, 3, 12), (2, 16, 48)])
    def test_vertical_peak_is_the_full_block_peak_at_every_length(self, batch, q, v):
        # a ragged last block runs padded to whole chunks, never past V
        model = generate_model(self.SPEC)
        tok = np.random.default_rng(v).integers(0, self.SPEC.vocab_size - 1, (batch, 3 * v))
        full = infer(model, tok[:, :v], v, q).ledger.peak_elements
        for t in range(v, 3 * v):
            assert infer(model, tok[:, :t], v, q).ledger.peak_elements == full


class TestFlopCounts:
    # Literal per-stage flops of the run-time counter that the closed form
    # replaced.  Stage 3 reads out chunk 0 of every block, from a zero state
    # when none is carried in, so each fresh row counts as its carried twin.
    SPEC = ModelSpec(seed=5, L=2, d=8, H=2, N=3, vocab_size=32, Q=4, V=8)
    MODEL = generate_model(SPEC)

    @staticmethod
    def run(model, kernel, batch, t, q, v, carried):
        spec = model.spec
        rng = np.random.default_rng(t)
        tok = rng.integers(0, spec.vocab_size - 1, size=(batch, t))
        states = rng.standard_normal((spec.L, batch, spec.H, spec.N)) if carried else None
        return infer(model, tok, v, q, kernel=kernel, initial_states=states)

    @pytest.mark.parametrize("kernel,batch,t,q,v,carried,flops", [
        ("chunked", 2, 50, 4, None, False, (8088, 312, 1600)),
        ("chunked", 1, 37, 37, None, False, (20128, 12, 592)),
        ("recurrent", 2, 40, 4, None, False, (0, 0, 0)),
        ("chunked", 1, 70, 4, 16, False, (5684, 216, 1120)),
        ("chunked", 3, 47, 3, None, False, (9504, 576, 2256)),
        ("chunked", 3, 47, 3, 12, False, (9504, 576, 2256)),
        ("chunked", 2, 50, 4, None, True, (8088, 312, 1600)),
        ("chunked", 1, 37, 37, None, True, (20128, 12, 592)),
        ("chunked", 1, 70, 4, 16, True, (5684, 216, 1120)),
        ("chunked", 3, 47, 3, 12, True, (9504, 576, 2256)),
    ])
    def test_flops_are_pinned(self, kernel, batch, t, q, v, carried, flops):
        f = self.run(self.MODEL, kernel, batch, t, q, v, carried).flops
        assert (f.intra, f.propagate, f.inter) == flops
        assert f.total == sum(flops)

    @pytest.mark.parametrize("q,v", [(4, None), (4, 16), (37, None)])
    def test_zero_initial_states_count_like_random_ones(self, q, v):
        # every state is read out, zero or not, and a missing state is a
        # zero state: the counts do not depend on the states, and the zeros add
        # exact zeros, so the outputs are those of a fresh call
        spec = self.SPEC
        tok = np.random.default_rng(1).integers(0, spec.vocab_size - 1, size=(2, 37))
        states = np.random.default_rng(2).standard_normal((spec.L, 2, spec.H, spec.N))
        fresh = infer(self.MODEL, tok, v, q)
        zero = infer(self.MODEL, tok, v, q, initial_states=np.zeros_like(states))
        carried = infer(self.MODEL, tok, v, q, initial_states=states)
        assert zero.flops == carried.flops
        assert fresh.flops == carried.flops
        assert np.array_equal(zero.hidden, fresh.hidden)
        assert np.array_equal(zero.states, fresh.states)

    # a layer call longer than one tile runs one kernel call per tile, whose
    # flops sum to the whole call's: tile 0 gets the call's state, None or
    # not, and every later tile the state the tile before it left
    @pytest.mark.parametrize("batch,t,q,chunks,tiles", [
        (2, 4096, 16, None, 3),  # the module's budget: tiles of 96 chunks
        (3, 47, 3, 4, 4),        # tiles of 4 chunks, the last one ragged
    ])
    @pytest.mark.parametrize("with_state", [False, True])
    def test_a_multi_tile_call_counts_its_tiles(self, monkeypatch, batch, t, q, chunks, tiles,
                                                with_state):
        h, n = 2, 4
        seen = []
        original = stack.chunked_forward

        def recorded(coeffs, x, chunk_size, h0=None, **kwargs):
            seen.append((x.shape[1], h0 is not None))
            return original(coeffs, x, chunk_size, h0, **kwargs)

        monkeypatch.setattr(stack, "chunked_forward", recorded)
        rng = np.random.default_rng(t)
        h0 = rng.standard_normal((batch, h, n)) if with_state else None
        with layer_tiles(chunks, h, q):
            layer_forward(tiny_params(t, h=h, n=n), rng.standard_normal((batch, t, 8)), h0, q)
        assert len(seen) == tiles
        assert [passed for _, passed in seen] == [with_state] + [True] * (tiles - 1)
        lengths = [m for m, _ in seen]
        lengths[-1] -= sum(lengths) - t  # the padded tail of the last tile
        by_tile = [stage_flops(batch, m, h, n, q) for m in lengths]
        whole = stage_flops(batch, t, h, n, q)
        for stage in ("intra", "propagate", "inter"):
            assert getattr(whole, stage) == sum(getattr(f, stage) for f in by_tile)


class TestNoneIsAZeroState:
    # A missing state is exactly a zero state: the kernels give the same
    # bits for h0=None and h0=zeros, and infer the same results and counts
    # for initial_states=None and zeros, on one block, on several and split
    SPEC = ModelSpec(seed=9, L=2, d=8, H=2, N=3, vocab_size=32, Q=4, V=8)
    MODEL = generate_model(SPEC)

    @pytest.mark.parametrize("schedule", ["horizontal", "vertical", "row-groups"])
    @pytest.mark.parametrize("t", [48, 37])  # aligned, and ragged but at Q = 1
    @pytest.mark.parametrize("q", [1, 4, 16])
    def test_none_gives_the_zero_state_results(self, q, t, schedule):
        rng = np.random.default_rng(q * t)
        coeffs = random_coefficients(rng, 2, t, 2, 3)
        x = rng.standard_normal((2, t, 2))
        zero = np.zeros((2, 2, 3))
        for run in (lambda h0: chunked_forward(coeffs, x, q, h0),
                    lambda h0: chunked.dense_dual(coeffs, x, h0),
                    lambda h0: recurrent_scan(coeffs, x, h0)):
            for got, want in zip(run(None), run(zero)):
                assert got.tobytes() == want.tobytes()

        spec, batch = self.SPEC, 4
        tok = rng.integers(0, spec.vocab_size - 1, size=(batch, t))
        v = 2 * q if schedule == "vertical" else None
        with row_groups(2 if schedule == "row-groups" else 1):
            none = infer(self.MODEL, tok, v, q)
            zeros = infer(self.MODEL, tok, v, q,
                          initial_states=np.zeros((spec.L, batch, spec.H, spec.N)))
        assert none.hidden.tobytes() == zeros.hidden.tobytes()
        assert none.states.tobytes() == zeros.states.tobytes()
        assert none.flops == zeros.flops
        assert none.ledger == zeros.ledger


class TestClosedFormsPerShape:
    # infer computes a block's flops and footprint once per block shape;
    # every call still gets its own counter and ledger, equal to the closed
    # forms of its blocks computed directly
    SPEC = ModelSpec(seed=5, L=2, d=8, H=2, N=3, vocab_size=32, Q=4, V=8)
    MODEL = generate_model(SPEC)

    @staticmethod
    def closed_forms(spec, kernel, batch, t, q, v):
        step = v or t
        blocks = [min(step, t - start) for start in range(0, t, step)]
        flops = FlopCounter()
        for n in blocks if kernel != "recurrent" else ():
            f = stage_flops(batch, n, spec.H, spec.N, q)
            flops.intra += spec.L * f.intra
            flops.propagate += spec.L * f.propagate
            flops.inter += spec.L * f.inter
        peak = max(stack._block_elements(spec, batch, n, q, kernel) for n in blocks)
        return flops, spec.L * batch * spec.H * spec.N + peak

    @pytest.mark.parametrize("kernel,batch,t,q,v,carried", [
        ("chunked", 2, 32, 4, None, False),  # fresh
        ("chunked", 1, 70, 4, 16, True),     # carried, ragged last block
        ("chunked", 3, 47, 3, 12, False),    # ragged chunks, fresh
        ("chunked", 1, 37, 37, None, True),  # one chunk spanning the call
        ("recurrent", 2, 40, 4, 8, False),
    ])
    def test_each_call_gets_its_own_counter_and_ledger(self, kernel, batch, t, q, v, carried):
        spec = self.SPEC
        rng = np.random.default_rng(t)
        tok = rng.integers(0, spec.vocab_size - 1, size=(batch, t))
        states = rng.standard_normal((spec.L, batch, spec.H, spec.N)) if carried else None
        flops, peak = self.closed_forms(spec, kernel, batch, t, q, v)
        first, second = (infer(self.MODEL, tok, v, q, kernel=kernel, initial_states=states)
                         for _ in range(2))
        assert first.flops is not second.flops and first.ledger is not second.ledger
        for result in (first, second):
            assert result.flops == flops and result.ledger.peak_elements == peak
        first.flops.intra += 1
        first.ledger.peak_elements += 1
        third = infer(self.MODEL, tok, v, q, kernel=kernel, initial_states=states)
        for result in (second, third):
            assert result.flops == flops and result.ledger.peak_elements == peak

    @pytest.mark.parametrize("kwargs,error", [
        (dict(kernel="bogus"), ValidationError),
        (dict(fault="gremlins"), ValidationError),
        (dict(kernel="recurrent", fault=chunked.FAULT_TRANSITION), ValidationError),
        (dict(chunk_size=DEFAULT_DENSE_LIMIT + 1), CapacityError),
    ])
    def test_a_refused_setting_does_no_block_work(self, kwargs, error):
        # refused before the states and the first block's closed forms are made
        before = stack._block_forms.cache_info()
        with pytest.raises(error):
            infer(self.MODEL, tokens_for(self.SPEC, 16), **kwargs)
        assert stack._block_forms.cache_info() == before

    def test_a_rewritten_tile_budget_reaches_the_ledger(self):
        # a (1, 64) block at Q = 4 runs as one tile, then as eight of two
        # chunks, then as one tile again once the budget is restored
        spec, tok = self.SPEC, np.arange(64) % (self.SPEC.vocab_size - 1)
        states = spec.L * spec.H * spec.N
        one_tile = infer(self.MODEL, tok, None, 4).ledger.peak_elements
        with layer_tiles(2, spec.H, 4):
            tiled = infer(self.MODEL, tok, None, 4).ledger.peak_elements
            assert tiled == states + stack._block_elements(spec, 1, 64, 4, "chunked")
        assert tiled != one_tile
        assert infer(self.MODEL, tok, None, 4).ledger.peak_elements == one_tile


class TestLedgerAgainstTracedMemory:
    # The ledger charges every buffer the schedules keep alive and skips
    # transient temporaries, so it should sit just under the measured peak.
    # Bounds: traced / (8 bytes x ledger peak) within [0.95, 1.10] for one
    # horizontal call (measured 1.001-1.035; 1 x 65,536 runs as 43 layer
    # tiles) and for one multi-block vertical call (measured 1.03 at V =
    # 256), and a vertical traced peak at T = 4096 within 1.10x of the one at
    # T = 256 (measured within 2%).
    SPEC = ModelSpec(seed=42, L=4, d=16, H=2, N=4, vocab_size=64, Q=16, V=64)

    @pytest.mark.parametrize("batch,t", [(1, 256), (2, 1000), (2, 4096), (1, 65536)])
    def test_horizontal_traced_peak_matches_the_ledger(self, batch, t):
        model = generate_model(self.SPEC)
        tok = tokens_for(self.SPEC, t, batch)
        horizontal_infer(model, tok)  # warm lazy set-up
        result, peak = traced_peak_bytes(horizontal_infer, model, tok)
        ratio = peak / (8 * result.ledger.peak_elements)
        assert 0.95 <= ratio <= 1.10

    def test_multi_block_traced_peak_matches_the_ledger(self):
        # a block's output must not outlive the block: kept alive through the
        # next block's stage 1, it put the ratio at 1.24 here
        model = generate_model(self.SPEC)
        tok = tokens_for(self.SPEC, 2048)
        vertical_infer(model, tok, 256)  # warm lazy set-up
        result, peak = traced_peak_bytes(vertical_infer, model, tok, 256)
        ratio = peak / (8 * result.ledger.peak_elements)
        assert 0.95 <= ratio <= 1.10

    def test_ragged_recurrent_traced_peak_matches_the_ledger(self):
        # 17 positions are projected padded to 32 and scanned as 17 (measured
        # 1.05); a ledger of the 17 real rows alone would read about half
        # the traced peak (1.93)
        model = generate_model(self.SPEC)
        tok = tokens_for(self.SPEC, 17, batch=64)
        horizontal_infer(model, tok, kernel="recurrent")  # warm lazy set-up
        result, peak = traced_peak_bytes(horizontal_infer, model, tok, kernel="recurrent")
        ratio = peak / (8 * result.ledger.peak_elements)
        assert 0.95 <= ratio <= 1.10

    # Short calls pay a fixed per-call cost (array headers, views,
    # coefficient objects) that the closed form leaves out, so their bounds
    # sit above 1.10, each just above its measured ratio, so that a rise in
    # that fixed cost fails here: 1.15 for a 1 x 77 horizontal call (an
    # embedding query, measured 1.083) and a 1,024-token V = 64 segment with
    # carried states (a streamed document's, measured 1.110); 1.30 for a
    # 1 x 17 horizontal call (measured 1.220-1.241); 1.50 for 1,024-token
    # segments at V = 16, fresh or carried (measured 1.42-1.43).
    @pytest.mark.parametrize("t,block_len,carried,high", [
        (77, None, False, 1.15),
        (1024, 64, True, 1.15),
        (17, None, False, 1.30),
        (1024, 16, False, 1.50),
        (1024, 16, True, 1.50),
    ], ids=["horizontal-77", "vertical-1024-V64-carried", "horizontal-17",
            "vertical-1024-V16", "vertical-1024-V16-carried"])
    def test_short_call_traced_peak_matches_the_ledger(self, t, block_len, carried, high):
        model = generate_model(self.SPEC)
        tok = tokens_for(self.SPEC, t)
        states = (np.random.default_rng(1).standard_normal((self.SPEC.L, 1, self.SPEC.H,
                                                            self.SPEC.N)) if carried else None)
        infer(model, tok, block_len, initial_states=states)  # warm lazy set-up
        result, peak = traced_peak_bytes(infer, model, tok, block_len, initial_states=states)
        ratio = peak / (8 * result.ledger.peak_elements)
        assert 0.95 <= ratio <= high

    def test_horizontal_traced_peak_grows_by_the_residual_stream(self):
        # a horizontal call holds one residual stream plus one layer tile,
        # whose buffers, its RMS and gate-bias rows among them, span the
        # tile alone, so its peak grows with length by the stream alone
        # (8 b T d bytes): measured 1.000x the stream's growth, against
        # 3.37x when each layer held u, un, a and the projections whole
        model = generate_model(self.SPEC)
        peaks = {}
        for t in (16384, 65536):
            tok = tokens_for(self.SPEC, t)
            horizontal_infer(model, tok)  # warm lazy set-up
            _, peaks[t] = traced_peak_bytes(horizontal_infer, model, tok)
        stream = 8 * (65536 - 16384) * self.SPEC.d
        assert peaks[65536] - peaks[16384] <= 1.02 * stream

    def test_vertical_traced_peak_is_flat_in_length(self):
        model = generate_model(self.SPEC)
        vertical_infer(model, tokens_for(self.SPEC, 256))  # warm lazy set-up
        peaks = {}
        for t in (256, 4096):
            _, peaks[t] = traced_peak_bytes(vertical_infer, model, tokens_for(self.SPEC, t))
        assert peaks[4096] <= 1.10 * peaks[256]


@contextmanager
def row_groups(groups):
    """Split every block into min(groups, batch) row groups, whatever its size
    and the host's CPU count; groups=1 forces the unsplit path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stack, "_CPUS", groups)
        mp.setattr(stack, "_MIN_GROUP_POSITIONS", 1)
        yield


class TestRowGroups:
    SPEC = ModelSpec(seed=21, L=2, d=8, H=2, N=3, vocab_size=32, Q=4, V=8)
    MODEL = generate_model(SPEC)

    @staticmethod
    def run(groups, *args, **kwargs):
        blocks = []
        with row_groups(groups):
            result = infer(*args, sink=lambda start, block: blocks.append((start, block)),
                           **kwargs)
        return result, blocks

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_split_blocks_match_the_unsplit_block_bitwise(self, data):
        batch = data.draw(st.integers(1, 7), "batch")
        t = data.draw(st.integers(1, 90), "T")
        q = data.draw(st.sampled_from((1, 2, 4, 8, 16)), "Q")
        block = data.draw(st.sampled_from((None,) + tuple(q * m for m in range(1, 5))),
                          "block_len")
        kernel = data.draw(st.sampled_from(KERNELS), "kernel")
        fault = data.draw(st.sampled_from((None,) + FAULT_MODES), "fault") \
            if kernel == "chunked" else None
        groups = data.draw(st.sampled_from((2, 3)), "groups")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), "seed"))
        tok = rng.integers(0, self.SPEC.vocab_size - 1, size=(batch, t))
        states = (rng.standard_normal((self.SPEC.L, batch, self.SPEC.H, self.SPEC.N))
                  if data.draw(st.booleans(), "carried") else None)
        args = (self.MODEL, tok, block, q)
        kwargs = dict(kernel=kernel, initial_states=states, fault=fault)

        whole, whole_blocks = self.run(1, *args, **kwargs)
        split, split_blocks = self.run(groups, *args, **kwargs)
        assert np.array_equal(split.hidden, whole.hidden)
        assert np.array_equal(split.states, whole.states)
        assert [start for start, _ in split_blocks] == [start for start, _ in whole_blocks]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(split_blocks, whole_blocks))
        assert split.ledger == whole.ledger
        assert split.flops == whole.flops

    @pytest.mark.parametrize("kwargs,error", [
        (dict(fault="no-such-fault"), ValidationError),
        (dict(kernel="no-such-kernel"), ValidationError),
        (dict(kernel="recurrent", fault=FAULT_MODES[0]), ValidationError),
    ])
    def test_split_call_raises_the_unsplit_error(self, kwargs, error):
        tok = tokens_for(self.SPEC, 37, batch=5)
        raised = {}
        for groups in (1, 3):
            with row_groups(groups), pytest.raises(error) as exc:
                infer(self.MODEL, tok, **kwargs)
            raised[groups] = exc
        assert raised[3].type is raised[1].type
        assert str(raised[3].value) == str(raised[1].value)

    @pytest.mark.parametrize("slow_rows", [2, 3])  # the first or the second group
    def test_first_group_error_is_raised_after_every_group_finishes(self, monkeypatch,
                                                                     slow_rows):
        busy, lock = [0], threading.Lock()

        def failing_layer(params, u, *args, **kwargs):
            with lock:
                busy[0] += 1
            try:
                if u.shape[0] == slow_rows:
                    time.sleep(0.05)
                raise RuntimeError(f"group of {u.shape[0]} rows")
            finally:
                with lock:
                    busy[0] -= 1

        monkeypatch.setattr(stack, "layer_forward", failing_layer)
        with row_groups(2), pytest.raises(RuntimeError, match="^group of 2 rows$"):
            infer(self.MODEL, tokens_for(self.SPEC, 16, batch=5))
        assert busy[0] == 0

    @pytest.mark.parametrize("block_len", [None, 256])
    def test_split_traced_peak_stays_within_the_ledger(self, block_len):
        # the groups together hold what the unsplit block would; a previous
        # block's output kept alive through the next block's groups would not
        spec = TestLedgerAgainstTracedMemory.SPEC
        model = generate_model(spec)
        tok = tokens_for(spec, 2048, batch=4)
        with row_groups(2):
            infer(model, tok, block_len)  # warm lazy set-up and the pool
            result, peak = traced_peak_bytes(infer, model, tok, block_len)
        assert peak <= 1.10 * 8 * result.ledger.peak_elements

    def test_split_groups_write_one_stream(self):
        # with small layer tiles the ledger is about one residual stream: the
        # groups overwrite their rows of one block stream in place, where a
        # concatenation of their outputs put the traced peak at 1.8x
        spec = TestLedgerAgainstTracedMemory.SPEC
        model = generate_model(spec)
        tok = tokens_for(spec, 2048, batch=4)
        with row_groups(2), layer_tiles(1, spec.H, spec.Q):
            infer(model, tok)  # warm lazy set-up and the pool
            result, peak = traced_peak_bytes(infer, model, tok)
        assert 0.95 <= peak / (8 * result.ledger.peak_elements) <= 1.10


ROOT = Path(__file__).resolve().parent.parent


def run_python(script: str) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter on the package in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


class TestRowGroupThreads:
    # Fresh interpreters: the pool lives for the life of a process, and a
    # forced split exercises it on a host of any CPU count.
    PRELUDE = """
import sys, threading
import numpy as np
from ssdkit import ModelSpec, embed_sequence, generate_model, horizontal_infer, stack
from ssdkit import vertical_infer
model = generate_model(ModelSpec(seed=1))
tok = np.random.default_rng(0).integers(0, 255, size=(4, 64))
"""

    def test_import_does_not_load_the_pool_module(self):
        proc = run_python("import sys, ssdkit\n"
                          "assert 'concurrent.futures' not in sys.modules")
        assert proc.returncode == 0, proc.stderr

    def test_batch_one_calls_start_no_thread(self):
        proc = run_python(self.PRELUDE + """
stack._CPUS = 4
long = np.random.default_rng(1).integers(0, 255, size=20000)
horizontal_infer(model, long)
vertical_infer(model, long)
embed_sequence(model, list(long[:50]))
embed_sequence(model, list(long[:50]), strategy="vertical")
assert threading.active_count() == 1, threading.enumerate()
assert 'concurrent.futures' not in sys.modules
""")
        assert proc.returncode == 0, proc.stderr

    def test_reimported_module_is_freed(self):
        # the at-fork callback must not keep an old import's globals alive
        proc = run_python(self.PRELUDE + """
import gc, weakref
stack._CPUS, stack._MIN_GROUP_POSITIONS = 2, 1
horizontal_infer(model, tok)  # builds the pool
old = weakref.ref(stack.infer)
del model, stack, embed_sequence, generate_model, horizontal_infer, vertical_infer, ModelSpec
for name in [m for m in sys.modules if m.partition(".")[0] == "ssdkit"]:
    del sys.modules[name]
import ssdkit.stack
gc.collect()
assert old() is None, "the first import's stack.infer is still alive"
""")
        assert proc.returncode == 0, proc.stderr

    def test_purged_imports_leave_no_pool_alive(self):
        # the pool belongs to its import's module: nothing registered on
        # import keeps an earlier import's pool once the module is purged
        proc = run_python(self.PRELUDE + """
import gc
from concurrent.futures import ThreadPoolExecutor
del embed_sequence, vertical_infer
for _ in range(5):
    stack._CPUS, stack._MIN_GROUP_POSITIONS = 2, 1
    horizontal_infer(model, tok)  # builds this import's pool
    del model, stack, generate_model, horizontal_infer, ModelSpec
    for name in [m for m in sys.modules if m.partition(".")[0] == "ssdkit"]:
        del sys.modules[name]
    from ssdkit import ModelSpec, generate_model, horizontal_infer, stack
    model = generate_model(ModelSpec(seed=1))
gc.collect()
alive = sum(isinstance(obj, ThreadPoolExecutor) for obj in gc.get_objects())
assert alive == 0, f"{alive} of 5 purged imports' pools are alive"
""")
        assert proc.returncode == 0, proc.stderr

    def test_forked_child_runs_a_split_call(self):
        proc = run_python(self.PRELUDE + """
import multiprocessing
stack._CPUS, stack._MIN_GROUP_POSITIONS = 2, 1
want = horizontal_infer(model, tok).hidden
assert threading.active_count() > 1

def child():
    sys.exit(0 if np.array_equal(horizontal_infer(model, tok).hidden, want) else 3)

p = multiprocessing.get_context("fork").Process(target=child)
p.start()
p.join(30)
if p.is_alive():
    p.kill()
    sys.exit("the forked child's split call hung")
sys.exit(p.exitcode)
""")
        assert proc.returncode == 0, proc.stderr


class TestStateSnapshots:
    def test_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(30)
        states = rng.standard_normal((3, 2, 2, 4))
        doc = export_state_snapshot(states)
        back = import_state_snapshot(doc)
        assert np.array_equal(back, states)

    def test_file_roundtrip_is_bit_exact(self, tmp_path):
        # JSON stores shortest-repr decimals, which parse back to the same
        # doubles, so even a disk trip loses nothing
        rng = np.random.default_rng(31)
        states = rng.standard_normal((2, 1, 3, 5)) * 1e6
        path = tmp_path / "states.json"
        save_state_snapshot(path, states)
        assert np.array_equal(load_state_snapshot(path), states)

    def test_snapshot_feeds_a_continuation(self, tmp_path):
        spec = TestVerticalInfer.SPEC
        model = generate_model(spec)
        tok = tokens_for(spec, 96)
        whole = vertical_infer(model, tok)
        first = vertical_infer(model, tok[:, :64])
        path = tmp_path / "carry.json"
        save_state_snapshot(path, first.states)
        second = vertical_infer(model, tok[:, 64:], initial_states=load_state_snapshot(path))
        assert np.array_equal(second.hidden, whole.hidden)

    def test_version_mismatch_rejected(self):
        doc = export_state_snapshot(np.zeros((1, 1, 1, 1)))
        doc["version"] = 99
        with pytest.raises(FormatError):
            import_state_snapshot(doc)

    def test_missing_field_rejected(self):
        doc = export_state_snapshot(np.zeros((1, 1, 1, 1)))
        del doc["layer_count"]
        with pytest.raises(FormatError):
            import_state_snapshot(doc)

    def test_layer_count_mismatch_rejected(self):
        doc = export_state_snapshot(np.zeros((2, 1, 1, 1)))
        doc["states"] = doc["states"][:1]
        with pytest.raises(FormatError):
            import_state_snapshot(doc)

    def test_short_layer_payload_rejected(self):
        doc = export_state_snapshot(np.zeros((1, 1, 2, 2)))
        doc["states"][0] = doc["states"][0][:3]
        with pytest.raises(FormatError):
            import_state_snapshot(doc)

    @pytest.mark.parametrize("field,value", [
        ("b", 1.7), ("b", 1.0), ("h", True), ("n", "1"), ("layer_count", -1),
        ("version", True), ("version", 1.0)])
    def test_malformed_dimension_rejected(self, field, value):
        doc = export_state_snapshot(np.zeros((1, 1, 1, 1)))
        doc[field] = value
        with pytest.raises(FormatError):
            import_state_snapshot(doc)

    def test_huge_declared_dimensions_rejected_before_allocating(self):
        doc = export_state_snapshot(np.zeros((1, 1, 1, 1)))
        doc["b"] = doc["h"] = 2 ** 20  # 8 TiB if allocated from the header
        with pytest.raises(FormatError):
            import_state_snapshot(doc)

    @pytest.mark.parametrize("value", [
        "nan", "1.5", None, True, [0.0], float("nan"), float("inf"),
        pytest.param(10 ** 400, id="int-beyond-float")])
    def test_non_numeric_or_non_finite_value_rejected(self, value):
        doc = export_state_snapshot(np.zeros((2, 1, 1, 2)))
        doc["states"][1][1] = value
        with pytest.raises(FormatError):
            import_state_snapshot(doc)

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "states.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_state_snapshot(path)

    def test_snapshot_document_is_json_serializable(self):
        doc = export_state_snapshot(np.ones((2, 1, 2, 3)))
        text = json.dumps(doc)
        assert np.array_equal(import_state_snapshot(json.loads(text)),
                              np.ones((2, 1, 2, 3)))
