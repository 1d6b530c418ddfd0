"""Deterministic model generation, and every file the package writes or reads.

Parameter stream.  Parameters are drawn from SplitMix64, a published 64-bit
mixing generator: draw i of seed s is mix64(s + (i+1) * 0x9E3779B97F4A7C15),
mapped to a double in [0, 1) via the top 53 bits, then to [-1, 1).  The
arithmetic is pure integer mixing plus IEEE-754 scaling, so a seed yields the
identical parameter bytes on every platform.  Draws are consumed in one
fixed order (``_layout``, which generation, loading and the payload size
share): the embedding table first, then per layer w_a, b_a, W_B, W_C, W_x,
W_out (normalization scales are initialized to one and consume no draws).
Every drawn tensor is scaled by 1/sqrt(fan_in) of the projection it feeds
(channel count d for input projections, head count H for the output one).

File format.  A model file is a single JSON header line (model spec, payload
byte count, sha256 checksum), a newline, then the raw parameter payload:
row-major float64, little-endian, in the draw order above including the
all-ones normalization scales.  Loading verifies structure first (length
mismatches are FormatError) and the checksum second (IntegrityError), and
reproduces the saved model bit for bit.  Spec and state snapshot files
are JSON documents; every loader decodes JSON by ``_json_document``, and
every file is written by ``atomic_write``, never left half-written.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import uuid
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .core import _as_int
from .errors import FormatError, IntegrityError, ValidationError
from .stack import (LayerParams, ModelSpec, StackedModel, _model_spec, export_state_snapshot,
                    import_state_snapshot, layer_shapes)

__all__ = [
    "generate_model",
    "model_payload",
    "expected_payload_bytes",
    "save_model",
    "load_model",
    "spec_to_config",
    "spec_from_config",
    "save_model_spec",
    "load_model_spec",
    "atomic_write",
    "save_state_snapshot",
    "load_state_snapshot",
]

FORMAT_NAME = "ssdkit-model"
FORMAT_VERSION = 1

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """Draws start .. start+count-1 of the SplitMix64 stream for ``seed``."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed) + idx * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniform_signed(seed: int, start: int, count: int) -> np.ndarray:
    u = (_splitmix64(seed, start, count) >> np.uint64(11)).astype(np.float64)
    return u * (2.0 / 9007199254740992.0) - 1.0  # [0, 2^53) -> [-1, 1)


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a fresh temp file beside ``path`` for writing, in mode "w" or "wb" only.

    When the block completes the file is flushed, fsynced and renamed over
    ``path``; when it raises the temp file is removed, so ``path`` is either
    left as it was or fully replaced, never half-written.
    """
    if mode not in ("w", "wb"):
        raise ValidationError(f'atomic_write mode must be "w" or "wb", got {mode!r}')
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


def _json_document(data: bytes, what: str):
    """data decoded as UTF-8 JSON; anything else is a FormatError naming ``what``."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{what} is not valid JSON: {exc}") from exc


def _check_spec(spec) -> None:
    if not isinstance(spec, ModelSpec):
        raise ValidationError(f"spec must be a ModelSpec, got {type(spec).__name__}")


def _layout(spec: ModelSpec) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every tensor, in payload and draw order: the
    embedding table, then each layer's ``layer_shapes``; spec is checked."""
    _check_spec(spec)
    return ([("embedding", (spec.vocab_size, spec.d))]
            + list(layer_shapes(spec.H, spec.d, spec.N).items()) * spec.L)


def _split(flat: np.ndarray, shapes: list) -> list[np.ndarray]:
    """Consecutive slices of the 1-D ``flat``, reshaped to each of ``shapes``."""
    cuts = np.cumsum([math.prod(shape) for shape in shapes[:-1]], dtype=np.int64)
    return [part.reshape(shape) for part, shape in zip(np.split(flat, cuts), shapes)]


def _assemble(spec: ModelSpec, tensors) -> StackedModel:
    """The model of spec whose tensors, in ``_layout`` order, are ``tensors``."""
    tensors = iter(tensors)
    embedding = next(tensors)
    names = layer_shapes(spec.H, spec.d, spec.N)
    return StackedModel(spec, embedding,
                        [LayerParams(**dict(zip(names, tensors))) for _ in range(spec.L)])


def generate_model(spec: ModelSpec) -> StackedModel:
    """Build a model whose parameters are fully determined by spec.seed.

    Calling twice with the same spec yields bit-identical parameters.
    """
    layout = _layout(spec)
    drawn = [shape for name, shape in layout if name != "gamma"]  # gamma draws nothing
    values = iter(_split(_uniform_signed(spec.seed, 0, sum(map(math.prod, drawn))), drawn))

    def tensor(name, shape):
        if name == "gamma":
            return np.ones(shape)
        return next(values) / math.sqrt(spec.H if name == "W_out" else spec.d)

    return _assemble(spec, (tensor(name, shape) for name, shape in layout))


def model_payload(model: StackedModel) -> bytes:
    """Parameter payload: row-major float64, little-endian, in ``_layout`` order."""
    spec = _model_spec(model)
    names = layer_shapes(spec.H, spec.d, spec.N)
    tensors = [model.embedding] + [getattr(layer, n) for layer in model.layers for n in names]
    return b"".join(np.ascontiguousarray(t, dtype="<f8").tobytes() for t in tensors)


def expected_payload_bytes(spec: ModelSpec) -> int:
    return 8 * sum(math.prod(shape) for _, shape in _layout(spec))


def _checksum(payload: bytes) -> str:
    return "sha256:" + hashlib.sha256(payload).hexdigest()


def spec_to_config(spec: ModelSpec) -> dict:
    _check_spec(spec)
    return asdict(spec)


def spec_from_config(doc: dict) -> ModelSpec:
    if not isinstance(doc, dict):
        raise FormatError("model spec document must be a JSON object")
    extra = set(doc) - {f.name for f in fields(ModelSpec)} - {"dense_limit"}
    if extra:
        raise FormatError(f"unknown model spec fields: {sorted(extra)}")
    values = {k: _as_int(v, f"model spec field {k}", error=FormatError) for k, v in doc.items()}
    # older documents carry the dense limit, now chunked.DEFAULT_DENSE_LIMIT: check, then drop it
    _as_int(values.pop("dense_limit", 1), "model spec field dense_limit", 1, error=FormatError)
    try:
        return ModelSpec(**values)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"invalid model spec document: {exc}") from exc


def save_model_spec(path, spec: ModelSpec) -> None:
    doc = spec_to_config(spec)
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model_spec(path) -> ModelSpec:
    return spec_from_config(_json_document(Path(path).read_bytes(), "model spec file"))


def save_model(path, model: StackedModel) -> None:
    payload = model_payload(model)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "spec": spec_to_config(model.spec),
        "payload_bytes": len(payload),
        "checksum": _checksum(payload),
    }
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


def load_model(path) -> StackedModel:
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise FormatError("model file has no header line")
    header = _json_document(raw[:newline], "model header")
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise FormatError("not a model file (missing format marker)")
    version = _as_int(header.get("version"), "model format version", error=FormatError)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported model format version {version}")
    spec = spec_from_config(header.get("spec"))

    payload = raw[newline + 1:]
    declared = _as_int(header.get("payload_bytes"), "payload_bytes", 0, error=FormatError)
    expected = expected_payload_bytes(spec)
    if len(payload) != declared or len(payload) != expected:
        raise FormatError(
            f"payload is {len(payload)} bytes; header declares {declared}, "
            f"spec requires {expected}")
    if _checksum(payload) != header.get("checksum"):
        raise IntegrityError("model payload checksum mismatch")

    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return _assemble(spec, _split(flat, [shape for _, shape in _layout(spec)]))


def save_state_snapshot(path, states) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(export_state_snapshot(states), fh)


def load_state_snapshot(path) -> np.ndarray:
    return import_state_snapshot(_json_document(Path(path).read_bytes(), "state snapshot"))
