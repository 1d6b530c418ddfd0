"""Malformed input at the public entry points, one row per case.

Every row must raise the SsdError subclass it names: never a bare TypeError,
IndexError or AttributeError, and never a return value.  A new entry point
joins the table with its malformed inputs.
"""

import json

import numpy as np
import pytest

from ssdkit import (
    DimensionError,
    EquivalenceConfig,
    FormatError,
    LayerParams,
    LossConfig,
    ModelSpec,
    SsdError,
    SsmCoefficients,
    StackedModel,
    SweepConfig,
    ValidationError,
    chunk_major,
    chunked_forward,
    cosine_similarity,
    cumulative_transition,
    dense_dual,
    embed_sequence,
    expected_payload_bytes,
    export_state_snapshot,
    generate_coefficients,
    generate_model,
    horizontal_infer,
    import_state_snapshot,
    infer,
    info_nce_loss,
    inter_chunk_correction,
    intra_chunk,
    load_model,
    load_model_spec,
    load_state_snapshot,
    layer_forward,
    model_payload,
    propagate_states,
    random_coefficients,
    read_records,
    recurrent_scan,
    save_model,
    stage_flops,
    tokenize_words,
    vertical_infer,
    workspace_elements,
)
from ssdkit.model_io import save_model_spec, spec_from_config, spec_to_config

SPEC = ModelSpec(seed=3, L=2, d=8, H=2, N=2, vocab_size=16, Q=4, V=8)
MODEL = generate_model(SPEC)
TOKENS = np.arange(6)[None, :]
COEFFS = random_coefficients(np.random.default_rng(0), 1, 8, 2, 3)
X = np.ones((1, 8, 2))
VEC = np.ones(4)
BATCH_0 = (COEFFS.a[:0], COEFFS.Bmat[:0], COEFFS.Cmat[:0])
A4, BM4, CM4, X4 = chunk_major(COEFFS, X, 4)  # (1, 2, 2, 4) and (1, 2, 2, 4, 3)
ENTRY4 = np.cumprod(A4, axis=-1)


def layer(**overrides):
    """LayerParams of the first layer of MODEL, with tensors replaced."""
    first = MODEL.layers[0]
    tensors = {name: getattr(first, name)
               for name in ("w_a", "b_a", "W_B", "W_C", "W_x", "W_out", "gamma")}
    return LayerParams(**{**tensors, **overrides})


def zero_heads():
    """LayerParams of MODEL's shape with no heads."""
    return layer(w_a=np.ones((0, 8)), b_a=np.ones(0), W_B=np.ones((0, 2, 8)),
                 W_C=np.ones((0, 2, 8)), W_x=np.ones((0, 8)), W_out=np.ones((0, 8)))


def snapshot(**overrides):
    """The snapshot document of two layers of states, with fields replaced."""
    return {**export_state_snapshot(np.zeros((2, 1, 2, 2))), **overrides}


def model_file(tmp_path, **header):
    """A saved MODEL whose header fields are replaced; returns its path."""
    path = tmp_path / "m.ssdm"
    save_model(path, MODEL)
    line, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps({**json.loads(line), **header}).encode() + b"\n" + payload)
    return path


NOT_UTF8 = b"hello \xff\xfe world\n"


def text_file(tmp_path, data: bytes):
    """A file holding data; returns its path."""
    path = tmp_path / "text.txt"
    path.write_bytes(data)
    return path


CASES = {
    # kernels and their stages
    "chunked_forward-none-coeffs": (lambda tmp: chunked_forward(None, X, 4), ValidationError),
    "chunk_major-none-coeffs": (lambda tmp: chunk_major(None, X, 4), ValidationError),
    "recurrent_scan-none-coeffs": (lambda tmp: recurrent_scan(None, X), ValidationError),
    "dense_dual-none-coeffs": (lambda tmp: dense_dual(None, X), ValidationError),
    "stage_flops-string-carry_in": (
        lambda tmp: stage_flops(1, 8, 2, 3, 4, carry_in="no"), ValidationError),
    "stage_flops-none-carry_in": (
        lambda tmp: stage_flops(1, 8, 2, 3, 4, carry_in=None), ValidationError),
    "cumulative_transition-bool-index": (
        lambda tmp: cumulative_transition(np.ones(3), True, 0), ValidationError),
    "cumulative_transition-float-index": (
        lambda tmp: cumulative_transition(np.ones(3), 1.0, 0), ValidationError),
    "random_coefficients-zero-state": (
        lambda tmp: random_coefficients(np.random.default_rng(0), 1, 4, 2, 0), ValidationError),
    "random_coefficients-none-rng": (
        lambda tmp: random_coefficients(None, 1, 2, 1, 1), ValidationError),
    "random_coefficients-float-length": (
        lambda tmp: random_coefficients(np.random.default_rng(0), 1, 2.5, 2, 2), ValidationError),
    "recurrent_scan-h0-shape": (
        lambda tmp: recurrent_scan(COEFFS, X, np.zeros((1, 2, 2))), DimensionError),
    "chunked_forward-x-shape": (
        lambda tmp: chunked_forward(COEFFS, np.ones((1, 7, 2)), 4), DimensionError),
    "chunked_forward-h0-shape": (
        lambda tmp: chunked_forward(COEFFS, X, 4, np.zeros((2, 2, 3))), DimensionError),
    "chunked_forward-string-chunk": (
        lambda tmp: chunked_forward(COEFFS, X, "4"), ValidationError),
    "propagate_states-3d-b_intra": (
        lambda tmp: propagate_states(np.ones((1, 2, 1)), np.ones((1, 2, 1)),
                                     np.zeros((1, 1, 1))), DimensionError),
    "propagate_states-transitions-shape": (
        lambda tmp: propagate_states(np.ones((1, 2, 1, 1)), np.ones((1, 3, 1)),
                                     np.zeros((1, 1, 1))), DimensionError),
    "SsmCoefficients-batch-0": (lambda tmp: SsmCoefficients(*BATCH_0), ValidationError),
    "SsmCoefficients-length-0": (
        lambda tmp: SsmCoefficients(COEFFS.a[:, :0], COEFFS.Bmat[:, :0], COEFFS.Cmat[:, :0]),
        ValidationError),
    "chunked_forward-batch-0-unchecked-coeffs": (
        lambda tmp: chunked_forward(SsmCoefficients(*BATCH_0, validate=False), X[:0], 4),
        ValidationError),
    "recurrent_scan-batch-0-unchecked-coeffs": (
        lambda tmp: recurrent_scan(SsmCoefficients(*BATCH_0, validate=False), X[:0]),
        ValidationError),
    "cumulative_transition-empty-series": (
        lambda tmp: cumulative_transition(np.ones(0), 0, 0), ValidationError),
    "stage_flops-batch--1": (
        lambda tmp: stage_flops(-1, 8, 2, 3, 4, carry_in=False), ValidationError),
    "stage_flops-zero-heads": (
        lambda tmp: stage_flops(1, 8, 0, 3, 4, carry_in=False), ValidationError),
    "workspace_elements-batch--1": (lambda tmp: workspace_elements(-1, 8, 2, 3, 4),
                                    ValidationError),
    "workspace_elements-zero-heads": (lambda tmp: workspace_elements(1, 8, 0, 3, 4),
                                      ValidationError),
    "intra_chunk-x-one-position-short": (
        lambda tmp: intra_chunk(A4, BM4, CM4, X4[..., :3]), DimensionError),
    "intra_chunk-Cm-state-size": (
        lambda tmp: intra_chunk(A4, BM4, CM4[..., :2], X4), DimensionError),
    "intra_chunk-complex-a": (
        lambda tmp: intra_chunk(A4.astype(complex), BM4, CM4, X4), ValidationError),
    "intra_chunk-3d-x": (lambda tmp: intra_chunk(A4, BM4, CM4, X4[0]), DimensionError),
    "intra_chunk-empty-chunk-axis": (
        lambda tmp: intra_chunk(A4[:, :0], BM4[:, :0], CM4[:, :0], X4[:, :0]), ValidationError),
    "inter_chunk_correction-3d-entry": (
        lambda tmp: inter_chunk_correction(ENTRY4[0], CM4, np.ones((1, 2, 2, 3))),
        DimensionError),
    "inter_chunk_correction-Cm-chunk-size": (
        lambda tmp: inter_chunk_correction(ENTRY4, CM4[..., :3, :], np.ones((1, 2, 2, 3))),
        DimensionError),
    "inter_chunk_correction-b_prev-shape": (
        lambda tmp: inter_chunk_correction(np.ones((1, 2, 1, 4)), np.ones((1, 2, 1, 4, 3)),
                                           np.ones((1, 2, 1, 2))), DimensionError),
    # model construction
    "LayerParams-1d-w_a": (lambda tmp: layer(w_a=np.ones(8)), DimensionError),
    "LayerParams-3d-w_a": (lambda tmp: layer(w_a=np.ones((2, 8, 1))), DimensionError),
    "LayerParams-1d-W_B": (lambda tmp: layer(W_B=np.ones(8)), DimensionError),
    "LayerParams-W_C-shape": (lambda tmp: layer(W_C=np.ones((2, 3, 8))), DimensionError),
    "LayerParams-zero-heads": (lambda tmp: zero_heads(), ValidationError),
    "LayerParams-zero-state": (
        lambda tmp: layer(W_B=np.ones((2, 0, 8)), W_C=np.ones((2, 0, 8))), ValidationError),
    "StackedModel-embedding-shape": (
        lambda tmp: StackedModel(SPEC, np.ones((15, 8)), MODEL.layers), DimensionError),
    "StackedModel-layer-count": (
        lambda tmp: StackedModel(SPEC, MODEL.embedding, MODEL.layers[:1]), DimensionError),
    "StackedModel-layer-dims": (
        lambda tmp: StackedModel(SPEC, MODEL.embedding,
                                 [MODEL.layers[0], layer(W_B=np.ones((2, 3, 8)),
                                                         W_C=np.ones((2, 3, 8)))]),
        DimensionError),
    "StackedModel-dict-spec": (
        lambda tmp: StackedModel({}, MODEL.embedding, MODEL.layers), ValidationError),
    "StackedModel-none-layers": (
        lambda tmp: StackedModel(SPEC, MODEL.embedding, None), ValidationError),
    "StackedModel-dict-layers": (
        lambda tmp: StackedModel(SPEC, MODEL.embedding, [dict()] * SPEC.L), ValidationError),
    "ModelSpec-float-L": (lambda tmp: ModelSpec(L=2.5), ValidationError),
    "generate_model-dict-spec": (lambda tmp: generate_model({"seed": 1}), ValidationError),
    "expected_payload_bytes-int-spec": (lambda tmp: expected_payload_bytes(3), ValidationError),
    "model_payload-int-model": (lambda tmp: model_payload(3), ValidationError),
    "save_model-int-model": (lambda tmp: save_model(tmp / "m.ssdm", 3), ValidationError),
    "spec_to_config-config-spec": (
        lambda tmp: spec_to_config(EquivalenceConfig()), ValidationError),
    "save_model_spec-int-spec": (
        lambda tmp: save_model_spec(tmp / "spec.json", 3), ValidationError),
    # layers and inference
    "layer_forward-batch-0-u": (
        lambda tmp: layer_forward(MODEL.layers[0], np.ones((0, 4, 8)), None, 4), ValidationError),
    "layer_forward-length-0-u": (
        lambda tmp: layer_forward(MODEL.layers[0], np.ones((1, 0, 8)), None, 4), ValidationError),
    "generate_coefficients-batch-0-u": (
        lambda tmp: generate_coefficients(MODEL.layers[0], np.ones((0, 4, 8)), 4),
        ValidationError),
    "generate_coefficients-length-0-u": (
        lambda tmp: generate_coefficients(MODEL.layers[0], np.ones((1, 0, 8)), 4),
        ValidationError),
    "infer-none-model": (lambda tmp: infer(None, TOKENS), ValidationError),
    "horizontal_infer-string-model": (
        lambda tmp: horizontal_infer("model", TOKENS), ValidationError),
    "vertical_infer-none-model": (lambda tmp: vertical_infer(None, TOKENS), ValidationError),
    "embed_sequence-none-model": (lambda tmp: embed_sequence(None, [1, 2]), ValidationError),
    "infer-3d-tokens": (lambda tmp: infer(MODEL, np.zeros((1, 2, 3), int)), DimensionError),
    "infer-non-callable-sink": (lambda tmp: infer(MODEL, TOKENS, 4, sink=3), ValidationError),
    "infer-initial_states-shape": (
        lambda tmp: infer(MODEL, TOKENS, initial_states=np.zeros((2, 1, 2, 3))),
        DimensionError),
    "infer-token-out-of-range": (lambda tmp: infer(MODEL, [[0, 16]]), ValidationError),
    "infer-ragged-tokens": (lambda tmp: infer(MODEL, [[1, 2], [3]]), DimensionError),
    "embed_sequence-ragged-tokens": (
        lambda tmp: embed_sequence(MODEL, [[1, 2], [3]]), DimensionError),
    # bench and embedding settings
    "EquivalenceConfig-bool-tolerance": (
        lambda tmp: EquivalenceConfig(tolerance=True), ValidationError),
    "EquivalenceConfig-string-tolerance": (
        lambda tmp: EquivalenceConfig(tolerance="1e-9"), ValidationError),
    "EquivalenceConfig-unknown-fault": (
        lambda tmp: EquivalenceConfig(fault="gremlins"), ValidationError),
    "EquivalenceConfig-int-fault": (lambda tmp: EquivalenceConfig(fault=3), ValidationError),
    "EquivalenceConfig-int-q_grid": (lambda tmp: EquivalenceConfig(q_grid=4), ValidationError),
    "SweepConfig-repeated-strategy": (
        lambda tmp: SweepConfig(strategies=("recurrent", "recurrent")), ValidationError),
    "SweepConfig-int-t_grid": (lambda tmp: SweepConfig(t_grid=3), ValidationError),
    "SweepConfig-repeated-t_grid": (lambda tmp: SweepConfig(t_grid=(16, 16)), ValidationError),
    "EquivalenceConfig-repeated-t_grid": (
        lambda tmp: EquivalenceConfig(t_grid=(16, 16)), ValidationError),
    "SweepConfig-int-strategies": (lambda tmp: SweepConfig(strategies=3), ValidationError),
    "LossConfig-bool-temperature": (lambda tmp: LossConfig(temperature=True), ValidationError),
    "info_nce_loss-string-temperature": (
        lambda tmp: info_nce_loss(VEC, VEC, temperature="0.1"), ValidationError),
    "info_nce_loss-none-temperature": (
        lambda tmp: info_nce_loss(VEC, VEC, temperature=None), ValidationError),
    "info_nce_loss-int-negatives": (
        lambda tmp: info_nce_loss(VEC, VEC, negatives=5), ValidationError),
    "info_nce_loss-none-negatives": (
        lambda tmp: info_nce_loss(VEC, VEC, negatives=None), ValidationError),
    "cosine_similarity-lengths": (
        lambda tmp: cosine_similarity(VEC, np.ones(3)), DimensionError),
    "cosine_similarity-empty": (lambda tmp: cosine_similarity([], []), ValidationError),
    "info_nce_loss-empty": (lambda tmp: info_nce_loss([], []), ValidationError),
    "info_nce_loss-empty-negative": (
        lambda tmp: info_nce_loss(VEC, VEC, negatives=[[]]), ValidationError),
    "tokenize_words-lone-surrogate": (
        lambda tmp: tokenize_words("hello \udcff world", 16), ValidationError),
    # documents
    "export_state_snapshot-3d": (
        lambda tmp: export_state_snapshot(np.zeros((1, 2, 2))), DimensionError),
    "export_state_snapshot-batch-0": (
        lambda tmp: export_state_snapshot(np.zeros((2, 0, 2, 2))), ValidationError),
    "snapshot-batch-0": (lambda tmp: import_state_snapshot(snapshot(b=0, states=[[], []])),
                         FormatError),
    "snapshot-bool-version": (lambda tmp: import_state_snapshot(snapshot(version=True)),
                              FormatError),
    "snapshot-float-version": (lambda tmp: import_state_snapshot(snapshot(version=1.0)),
                               FormatError),
    "snapshot-states-not-a-list": (
        lambda tmp: import_state_snapshot(snapshot(states="[]")), FormatError),
    "snapshot-layer-not-a-list": (
        lambda tmp: import_state_snapshot(snapshot(states=[[0.0] * 4, "0000"])), FormatError),
    "spec-zero-layers": (lambda tmp: spec_from_config({"L": 0}), FormatError),
    "model-bool-version": (lambda tmp: load_model(model_file(tmp, version=True)), FormatError),
    "model-float-version": (lambda tmp: load_model(model_file(tmp, version=1.0)), FormatError),
    "model-string-payload-bytes": (
        lambda tmp: load_model(model_file(tmp, payload_bytes="3264")), FormatError),
    "spec-file-not-utf8": (
        lambda tmp: load_model_spec(text_file(tmp, NOT_UTF8)), FormatError),
    "snapshot-file-not-utf8": (
        lambda tmp: load_state_snapshot(text_file(tmp, NOT_UTF8)), FormatError),
    "records-file-not-utf8": (
        lambda tmp: read_records(text_file(tmp, NOT_UTF8)), ValidationError),
    "records-field-over-the-csv-limit": (
        lambda tmp: read_records(text_file(tmp, b"x" * 200_000)), ValidationError),
}


@pytest.mark.parametrize("call,error", CASES.values(), ids=CASES.keys())
def test_malformed_input_raises_its_ssd_error(call, error, tmp_path):
    with pytest.raises(SsdError) as caught:
        call(tmp_path)
    assert isinstance(caught.value, error)


def test_a_refused_model_save_leaves_no_file(tmp_path):
    with pytest.raises(ValidationError):
        save_model(tmp_path / "m.ssdm", MODEL.spec)
    assert list(tmp_path.iterdir()) == []


def test_a_refused_spec_save_leaves_no_file(tmp_path):
    with pytest.raises(ValidationError):
        save_model_spec(tmp_path / "spec.json", 3)
    assert list(tmp_path.iterdir()) == []
