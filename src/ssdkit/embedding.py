"""Text embedding on top of a stacked model.

A sequence is embedded by appending the reserved end-of-sequence token (the
highest vocabulary id) and reading the final layer's hidden state at that
terminal position, so the pooled vector has seen every input token under the
causal kernel.  Instruction-style queries are rendered through a fixed
template before tokenization; similarity is cosine; the contrastive loss is
the standard softmax-over-similarities form evaluated with a max-shifted
log-sum-exp so small temperatures cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from zlib import crc32

import numpy as np

from .core import _as_int, _positive_real, _real_array
from .errors import DimensionError, ValidationError
from .stack import StackedModel, _check_tokens, _model_spec, horizontal_infer, vertical_infer

__all__ = [
    "QUERY_TEMPLATE",
    "EmbeddingOutput",
    "format_query",
    "tokenize_words",
    "embed_sequence",
    "cosine_similarity",
    "info_nce_loss",
]

QUERY_TEMPLATE = "Instruction: {prompt}\nQuery: {query}"
_SMALLEST_NORMAL = np.finfo(np.float64).tiny


def format_query(prompt: str, query: str) -> str:
    """Render the instruction template.

    One-shot substitution: braces inside prompt or query are left untouched,
    never re-expanded.
    """
    if not isinstance(prompt, str) or not isinstance(query, str):
        raise ValidationError("prompt and query must be strings")
    return QUERY_TEMPLATE.format(prompt=prompt, query=query)


def tokenize_words(text: str, vocab_size: int) -> list[int]:
    """Whitespace-split hashing tokenizer.

    Each word maps to crc32(utf-8 bytes) mod (vocab_size - 1), so ids never
    collide with the reserved end-of-sequence id and any caller gets the same
    ids for the same text on any platform.
    """
    if not isinstance(text, str):
        raise ValidationError(f"text must be a string, got {type(text).__name__}")
    ids = _as_int(vocab_size, "vocab_size", 2) - 1  # one id is reserved
    try:
        return [crc32(w.encode()) % ids for w in text.split()]
    except UnicodeEncodeError as exc:  # lone surrogates: undecodable stdin bytes in UTF-8 mode
        raise ValidationError(f"text is not valid Unicode: {exc}") from exc


@dataclass
class EmbeddingOutput:
    vector: np.ndarray  # (d,)
    source_len: int     # tokens consumed, including the appended terminal id


def embed_sequence(model: StackedModel, tokens, *, strategy: str = "horizontal",
                   chunk_size: int | None = None,
                   block_len: int | None = None) -> EmbeddingOutput:
    """Embed one token sequence: append the terminal id, pool its hidden state.

    Args:
        tokens:   1-D sequence of ids below the reserved terminal id.
        strategy: "horizontal" or "vertical"; both yield the same vector,
                  identical at every length.
        block_len: the vertical block length (default model.spec.V); refused
                  under the horizontal strategy, whose one block spans the
                  sequence.
    """
    eos = _model_spec(model).eos_id
    tokens = _check_tokens(tokens, eos)  # ids stop below the terminal id
    if tokens.ndim != 1:
        raise DimensionError(f"embed_sequence takes a single 1-D sequence, got {tokens.shape}")
    full = np.full(tokens.size + 1, eos, np.int64)
    full[:-1] = tokens

    if strategy == "horizontal":
        if block_len is not None:
            raise ValidationError("block_len applies to the vertical strategy only")
        result = horizontal_infer(model, full, chunk_size)
    elif strategy == "vertical":
        result = vertical_infer(model, full, block_len, chunk_size)
    else:
        raise ValidationError(f"unknown strategy {strategy!r}")
    return EmbeddingOutput(result.hidden[0, -1].copy(), int(full.size))


def _checked(e, shape: tuple[int, ...], name: str) -> tuple[np.ndarray, float]:
    """e (the argument ``name``) as a float64 vector with its norm: 1-D of the
    query's shape, finite and nonzero.

    When e @ e overflows or falls below the smallest normal float, e is
    returned scaled by a power of two (exact, and the cosine is scale-free)
    to a max-abs in [0.5, 1), whose squared norm is normal.
    """
    e = _real_array(e, name)
    if e.ndim != 1 or e.shape != shape:
        raise DimensionError(f"embeddings must be matching 1-D vectors, got {shape}, {e.shape}")
    square = np.vdot(e, e)  # the bits of e @ e, without a warning when it overflows
    if not _SMALLEST_NORMAL <= square < math.inf:
        # a NaN or an infinity in e makes the square NaN or +inf (a sum of
        # squares cannot cancel one), so only such a square needs this pass
        if not np.isfinite(e).all():
            raise ValidationError("embeddings contain non-finite values")
        top = float(np.max(np.abs(e)))
        if top == 0.0:
            raise ValidationError("cosine similarity is undefined for zero vectors")
        e = np.ldexp(e, -math.frexp(top)[1])
        square = e @ e
    return e, math.sqrt(square)  # the bits of np.linalg.norm on a 1-D float64 vector


def _cosine(q: np.ndarray, q_norm: float, e: np.ndarray, e_norm: float) -> float:
    # value first, so a NaN (an overflowed dot product) passes through as np.clip's does
    return min(max(float(np.dot(q, e)) / (q_norm * e_norm), -1.0), 1.0)


def cosine_similarity(e1, e2) -> float:
    """Cosine of the angle between two embeddings, clipped to [-1, 1]."""
    q = _real_array(e1, "e1")
    e = _checked(e2, q.shape, "e2")  # a 1-D vector of q's shape: q is 1-D if this passes
    return _cosine(*_checked(q, q.shape, "e1"), *e)


def info_nce_loss(query, positive, negatives=(), *, temperature: float = 0.02) -> float:
    """Contrastive loss -log softmax(sim(q, p) / T) over positive + negatives.

    Evaluated as logsumexp(s / T) - s_p / T with the max subtracted first, so
    arbitrarily small temperatures stay finite.  With no negatives the loss is
    exactly zero.  The query is checked and normed once, not per candidate.
    """
    temperature = _positive_real(temperature, "temperature")
    q = _real_array(query, "query")
    if not isinstance(negatives, (list, tuple)):
        raise ValidationError(f"negatives must be a list or tuple of embeddings, "
                              f"got {type(negatives).__name__}")
    candidates = [_checked(positive, q.shape, "positive")]
    candidates += [_checked(e, q.shape, f"negatives[{i}]") for i, e in enumerate(negatives)]
    q, q_norm = _checked(q, q.shape, "query")
    sims = [_cosine(q, q_norm, e, e_norm) for e, e_norm in candidates]
    scaled = np.array(sims) / temperature
    shift = scaled.max()
    return float(shift + np.log(np.exp(scaled - shift).sum()) - scaled[0])
