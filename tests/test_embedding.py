"""Query templating, hashing tokenizer, pooling, similarity, contrastive loss.

Template renderings are pinned byte for byte in tests/data/format_query_golden.json.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ssdkit import (
    DimensionError,
    LossConfig,
    ModelSpec,
    QUERY_TEMPLATE,
    ValidationError,
    cosine_similarity,
    embed_sequence,
    format_query,
    generate_model,
    horizontal_infer,
    info_nce_loss,
    tokenize_words,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "format_query_golden.json"

SPEC = ModelSpec(seed=33, L=3, d=16, H=2, N=4, vocab_size=64, Q=8, V=16)


@pytest.fixture(scope="module")
def model():
    return generate_model(SPEC)


class TestFormatQuery:
    def test_template_constant(self):
        assert QUERY_TEMPLATE == "Instruction: {prompt}\nQuery: {query}"

    def test_golden_renderings_byte_exact(self):
        cases = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["cases"]
        assert len(cases) == 10
        for case in cases:
            rendered = format_query(case["prompt"], case["query"])
            assert rendered == case["rendered"]
            assert rendered.encode("utf-8") == case["rendered"].encode("utf-8")

    def test_substitution_is_one_shot(self):
        # braces from the caller survive literally, never re-expanded
        out = format_query("{query}", "{prompt}")
        assert out == "Instruction: {query}\nQuery: {prompt}"

    def test_non_string_arguments_rejected(self):
        with pytest.raises(ValidationError):
            format_query(None, "q")
        with pytest.raises(ValidationError):
            format_query("p", 7)


class TestTokenizeWords:
    def test_pinned_ids(self):
        # crc32 mod (vocab - 1); values frozen from one reference run
        assert tokenize_words("the quick brown fox", 256) == [213, 75, 111, 119]
        assert tokenize_words("hello world", 256) == [115, 6]

    def test_repeated_words_repeat_ids(self):
        assert tokenize_words("a b a b", 16) == [12, 11, 12, 11]

    def test_ids_never_hit_the_reserved_terminal(self):
        words = " ".join(f"w{i}" for i in range(500))
        ids = tokenize_words(words, 17)
        assert max(ids) <= 15  # id 16 is reserved

    def test_whitespace_only_text_is_empty(self):
        assert tokenize_words("  \t\n ", 256) == []

    def test_tiny_vocabulary_rejected(self):
        with pytest.raises(ValidationError):
            tokenize_words("x", 1)

    @pytest.mark.parametrize("text", [123, b"a b", None, ["a", "b"]])
    def test_non_string_text_rejected(self, text):
        with pytest.raises(ValidationError, match="text must be a string"):
            tokenize_words(text, 64)

    @pytest.mark.parametrize("vocab_size", [64.5, 64.0, True, "64"])
    def test_non_integer_vocabulary_rejected(self, vocab_size):
        # 64.5 would give float ids
        with pytest.raises(ValidationError, match="vocab_size must be an integer"):
            tokenize_words("a b", vocab_size)

    def test_numpy_integer_vocabulary_accepted(self):
        assert tokenize_words("hello world", np.int64(256)) == [115, 6]


class TestEmbedSequence:
    def test_pools_the_terminal_position(self, model):
        tokens = np.array([3, 1, 4])
        out = embed_sequence(model, tokens)
        full = np.array([3, 1, 4, SPEC.eos_id])
        ref = horizontal_infer(model, full)
        assert out.source_len == 4
        assert np.array_equal(out.vector, ref.hidden[0, -1])

    def test_single_token_sequence(self, model):
        out = embed_sequence(model, [7])
        assert out.source_len == 2
        assert out.vector.shape == (SPEC.d,)

    @pytest.mark.parametrize("length", [17, 40, 45, 60])  # ragged, past one block
    def test_strategies_agree(self, model, length):
        tokens = np.arange(length) % (SPEC.vocab_size - 1)
        h = embed_sequence(model, tokens, strategy="horizontal")
        v = embed_sequence(model, tokens, strategy="vertical")
        assert np.array_equal(h.vector, v.vector)
        # the vector is also the terminal row of any longer call
        longer = horizontal_infer(model, np.concatenate([tokens, [SPEC.eos_id], tokens[:9]]))
        assert np.array_equal(longer.hidden[0, length], h.vector)

    def test_prefix_change_moves_the_vector(self, model):
        # the pooled position sits at the end, so sensitivity to the first
        # token is what shows the state actually carries
        base = embed_sequence(model, [5, 9, 12, 30, 2]).vector
        bumped = embed_sequence(model, [6, 9, 12, 30, 2]).vector
        assert np.max(np.abs(base - bumped)) > 1e-6

    def test_suffix_change_moves_the_vector(self, model):
        base = embed_sequence(model, [5, 9, 12, 30, 2]).vector
        bumped = embed_sequence(model, [5, 9, 12, 30, 3]).vector
        assert np.max(np.abs(base - bumped)) > 1e-6

    def test_rejects_empty_and_malformed_input(self, model):
        with pytest.raises(ValidationError):
            embed_sequence(model, [])
        with pytest.raises(DimensionError):
            embed_sequence(model, [[1, 2]])
        with pytest.raises(ValidationError):
            embed_sequence(model, [0.5])

    def test_rejects_the_reserved_terminal_id(self, model):
        with pytest.raises(ValidationError):
            embed_sequence(model, [SPEC.eos_id])

    def test_non_integer_block_length_rejected(self, model):
        with pytest.raises(ValidationError, match="block length must be an integer"):
            embed_sequence(model, [1, 2, 3], strategy="vertical", block_len=32.0)

    @pytest.mark.parametrize("block_len", [7, 32])
    def test_block_length_refused_under_the_horizontal_strategy(self, model, block_len):
        # one horizontal block spans the sequence: a block length would go unread
        with pytest.raises(ValidationError, match="block_len applies to the vertical"):
            embed_sequence(model, [1, 2, 3], strategy="horizontal", block_len=block_len)

    def test_unknown_strategy_rejected(self, model):
        with pytest.raises(ValidationError):
            embed_sequence(model, [1], strategy="diagonal")


class TestCosineSimilarity:
    def test_self_similarity_is_one(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_opposite_vectors(self):
        assert cosine_similarity([1.0, 1.0], [-2.0, -2.0]) == pytest.approx(-1.0, rel=1e-12)

    def test_worked_example(self):
        # dot = 10, norms sqrt(14) each: 10/14
        got = cosine_similarity([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert got == pytest.approx(10.0 / 14.0, rel=1e-14)

    def test_result_is_clipped(self):
        v = np.full(64, 0.1)
        assert cosine_similarity(v, v) <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("e1,e2,cosine", [
        ([1e200] * 4, np.ones(4), 1.0),          # one squared norm overflows
        ([1e200] * 4, [1e200] * 4, 1.0),         # both do, and the dot product too
        ([1e-200] * 4, np.ones(4), 1.0),         # one squared norm underflows to 0
        ([5e-324, 0.0], [1.0, 0.0], 1.0),        # a subnormal vector
        ([3e200, 4e200], [4.0, 3.0], 0.96),
        ([3e-170, 4e-170], [4e170, 3e170], 0.96),
    ], ids=["overflow", "both-overflow", "underflow", "subnormal", "overflow-0.96",
            "both-scaled-0.96"])
    def test_extreme_magnitudes_keep_the_cosine(self, e1, e2, cosine):
        assert cosine_similarity(e1, e2) == pytest.approx(cosine, rel=1e-15)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DimensionError):
            cosine_similarity(np.ones((2, 2)), np.ones((2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            cosine_similarity([np.nan, 1.0], [1.0, 0.0])

    # strings would be parsed ("1" read as 1.0), bools read as 0/1, and a
    # complex vector either loses its imaginary part or raises a bare TypeError
    @pytest.mark.parametrize("e1,e2,field", [
        (["1", "2"], ["2", "4"], "e1"),
        ([1.0, 2.0], [True, False], "e2"),
        ([1j, 1], [1, 1], "e1"),
        ([1, 1], np.array([1 + 0j, 1]), "e2"),
    ])
    def test_non_real_vectors_rejected(self, e1, e2, field):
        with pytest.raises(ValidationError, match=f"{field} must hold real numbers"):
            cosine_similarity(e1, e2)

    def test_integer_vectors_are_converted(self):
        assert cosine_similarity([3, 4], np.array([3, 4], np.int8)) == 1.0


class TestInfoNceLoss:
    Q = np.array([1.0, 0.0, 0.0])
    P = np.array([1.0, 1.0, 0.0])
    N1 = np.array([-1.0, 0.2, 0.0])
    N2 = np.array([0.0, 0.0, 1.0])

    def test_no_negatives_is_exactly_zero(self):
        # softmax over a single candidate is 1; the loss must be 0.0 exactly,
        # not merely small
        assert info_nce_loss(self.Q, self.P) == 0.0
        assert info_nce_loss(self.Q, self.P, temperature=0.001) == 0.0

    @pytest.mark.parametrize("temperature", [1.0, 0.1, 0.02])
    def test_matches_direct_formula(self, temperature):
        s_p = cosine_similarity(self.Q, self.P)
        s_n = [cosine_similarity(self.Q, self.N1), cosine_similarity(self.Q, self.N2)]
        direct = -math.log(
            math.exp(s_p / temperature)
            / (math.exp(s_p / temperature) + sum(math.exp(s / temperature) for s in s_n)))
        got = info_nce_loss(self.Q, self.P, [self.N1, self.N2], temperature=temperature)
        assert got == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_identical_positive_and_negative_gives_log2(self):
        q = np.array([1.0, 0.0])
        loss = info_nce_loss(q, q, [q], temperature=0.25)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_query_norm_keeps_the_loss(self):
        # an infinite query norm would turn both cosines into 0 and the loss into log 2
        q, p, negatives = np.ones(4), np.ones(4), [-np.ones(4)]
        expected = info_nce_loss(q, p, negatives, temperature=0.5)
        got = info_nce_loss(np.full(4, 1e200), p, negatives, temperature=0.5)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got < 0.02  # log(1 + e^-4)

    def test_tiny_temperature_stays_finite(self):
        # a naive softmax would overflow exp(2/1e-6); the shifted form cannot
        loss = info_nce_loss(self.Q, self.Q, [-self.Q], temperature=1e-6)
        assert math.isfinite(loss)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_hard_negative_dominates_at_low_temperature(self):
        near = np.array([0.9, 0.435889894354067, 0.0])  # cos with Q = 0.9
        loss_cold = info_nce_loss(self.Q, self.Q, [near], temperature=0.02)
        loss_warm = info_nce_loss(self.Q, self.Q, [near], temperature=1.0)
        assert loss_cold < loss_warm  # positive wins harder when scaled up

    def test_temperature_validation(self):
        with pytest.raises(ValidationError):
            info_nce_loss(self.Q, self.P, temperature=0.0)
        with pytest.raises(ValidationError):
            info_nce_loss(self.Q, self.P, temperature=-1.0)
        with pytest.raises(ValidationError):
            LossConfig(temperature=math.inf)

    @pytest.mark.parametrize("query,negative", [
        (Q, np.array([1.0, 0.0])),           # a negative of the wrong length
        (Q, np.ones((1, 3))),                # a 2-D negative
        (np.ones((1, 3)), N1),               # a 2-D query
    ])
    def test_shape_faults_rejected(self, query, negative):
        with pytest.raises(DimensionError, match="matching 1-D vectors"):
            info_nce_loss(query, self.P, [self.N1, negative])

    @pytest.mark.parametrize("query,negative,message", [
        (np.array([np.inf, 0.0, 0.0]), N1, "non-finite"),
        (Q, np.array([0.0, np.nan, 0.0]), "non-finite"),
        (np.zeros(3), N1, "zero vectors"),
        (Q, np.zeros(3), "zero vectors"),
    ])
    def test_value_faults_rejected(self, query, negative, message):
        with pytest.raises(ValidationError, match=message):
            info_nce_loss(query, self.P, [self.N1, negative])

    # the finiteness pass runs only when a vector's square is not a normal
    # number, which a NaN or an infinity anywhere always makes it
    @staticmethod
    def five_vectors():
        rng = np.random.default_rng(11)
        vectors = rng.uniform(-1.0, 1.0, (5, 6))
        vectors[:, 0] = 0.75  # max-abs in [0.5, 1): a power-of-two scaling is undone exactly
        return list(vectors)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("role", range(5))
    @pytest.mark.parametrize("scale", [1.0, 2.0 ** 600, 2.0 ** -600], ids=["1", "2^600", "2^-600"])
    def test_a_non_finite_element_anywhere_is_rejected(self, role, scale):
        for position in range(6):
            for value in (np.nan, np.inf, -np.inf):
                vectors = [v * scale for v in self.five_vectors()]
                vectors[role][position] = value
                query, positive, *negatives = vectors
                with pytest.raises(ValidationError, match="non-finite"):
                    info_nce_loss(query, positive, negatives)
                if role < 2:
                    with pytest.raises(ValidationError, match="non-finite"):
                        cosine_similarity(query, positive)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -520, 2.0 ** -600],
                             ids=["2^600", "2^-520", "2^-600"])
    @pytest.mark.parametrize("role", range(5))
    def test_a_square_out_of_the_normal_range_scores_as_before(self, role, scale):
        # the square overflows, is subnormal (2^-520), or underflows to zero
        vectors = self.five_vectors()
        expected = info_nce_loss(vectors[0], vectors[1], vectors[2:], temperature=0.5)
        expected_cosine = cosine_similarity(vectors[0], vectors[1])
        vectors[role] = vectors[role] * scale
        assert info_nce_loss(vectors[0], vectors[1], vectors[2:], temperature=0.5) == expected
        assert cosine_similarity(vectors[0], vectors[1]) == expected_cosine

    @pytest.mark.parametrize("field,args", [
        ("query", ([1j, 0, 0], P, [N1])),
        ("positive", (Q, ["1", "1", "0"], [N1])),
        (r"negatives\[1\]", (Q, P, [N1, np.array([0, 0, 1], bool)])),
    ])
    def test_non_real_vectors_rejected(self, field, args):
        with pytest.raises(ValidationError, match=f"{field} must hold real numbers"):
            info_nce_loss(*args)

    def test_loss_config_default(self):
        assert LossConfig().temperature == 0.02


class TestEndToEndSimilarity:
    def test_near_duplicate_texts_score_higher_than_unrelated(self, model):
        def embed_text(text):
            ids = tokenize_words(text, SPEC.vocab_size)
            return embed_sequence(model, np.array(ids)).vector

        base = embed_text("the quick brown fox jumps over the lazy dog")
        near = embed_text("the quick brown fox jumps over the lazy cat")
        far = embed_text("completely unrelated words about matrix algebra")
        assert cosine_similarity(base, near) > cosine_similarity(base, far)

    def test_templated_query_embeds_deterministically(self, model):
        text = format_query("Retrieve relevant passages", "state space kernels")
        ids = tokenize_words(text, SPEC.vocab_size)
        a = embed_sequence(model, np.array(ids)).vector
        b = embed_sequence(model, np.array(ids)).vector
        assert np.array_equal(a, b)
