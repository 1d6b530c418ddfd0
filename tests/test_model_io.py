"""Deterministic parameter generation and the on-disk model format.

The frozen constants below (first generated value, payload checksum) were
computed once from the default configuration and pinned; any change to the
generator stream or the serialization order must show up here.
"""

import hashlib
import json

import numpy as np
import pytest

from ssdkit import (
    BenchRecord,
    FormatError,
    IntegrityError,
    ModelSpec,
    expected_payload_bytes,
    generate_model,
    load_model,
    load_model_spec,
    model_payload,
    save_model,
    save_model_spec,
    save_state_snapshot,
    write_records,
)
from ssdkit.model_io import spec_from_config, spec_to_config

# Pinned outputs of the default configuration (seed 42, 4 layers, d=16,
# H=2, N=4, vocab 256).  Computed once, frozen forever.
GOLDEN_FIRST_PARAM = 0.12078243938591166
GOLDEN_PAYLOAD_SHA = "sha256:8e1b271399e70705bdacd47ed5f3df46a573b35a26d3489978609b573e1e2da4"
GOLDEN_PAYLOAD_BYTES = 44608
# sha256 of the snapshot file of SNAPSHOT_STATES and of the spec file of ModelSpec()
SNAPSHOT_STATES = np.linspace(-1.0, 1.0, 12).reshape(2, 1, 2, 3)
GOLDEN_SNAPSHOT_FILE_SHA = "2b39392e89136e1576a84bd4117559891615ed32c7aa83a1715f122d362cf645"
GOLDEN_SPEC_FILE_SHA = "f1f52eb2d4773ada63f7f6e5a4f9e3e3c33bc32b282bd99eeab7dca323c692c0"


class TestGeneration:
    def test_same_seed_same_model(self):
        a = generate_model(ModelSpec(seed=0))
        b = generate_model(ModelSpec(seed=0))
        assert np.array_equal(a.embedding, b.embedding)
        for la, lb in zip(a.layers, b.layers):
            for name in ("w_a", "b_a", "W_B", "W_C", "W_x", "W_out", "gamma"):
                assert np.array_equal(getattr(la, name), getattr(lb, name))

    def test_different_seeds_differ(self):
        a = generate_model(ModelSpec(seed=0))
        b = generate_model(ModelSpec(seed=1))
        assert not np.array_equal(a.embedding, b.embedding)

    def test_first_generated_value_is_pinned(self):
        model = generate_model(ModelSpec())
        assert model.embedding[0, 0] == GOLDEN_FIRST_PARAM

    def test_payload_checksum_is_pinned(self, tmp_path):
        model = generate_model(ModelSpec())
        payload = model_payload(model)
        assert len(payload) == GOLDEN_PAYLOAD_BYTES
        path = tmp_path / "default.ssdm"
        save_model(path, model)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["checksum"] == GOLDEN_PAYLOAD_SHA
        assert header["payload_bytes"] == GOLDEN_PAYLOAD_BYTES

    @pytest.mark.parametrize("write,value,sha", [
        (save_state_snapshot, SNAPSHOT_STATES, GOLDEN_SNAPSHOT_FILE_SHA),
        (save_model_spec, ModelSpec(), GOLDEN_SPEC_FILE_SHA),
    ], ids=["snapshot", "spec"])
    def test_file_bytes_are_pinned(self, tmp_path, write, value, sha):
        path = tmp_path / "file.json"
        write(path, value)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha

    def test_expected_payload_bytes_matches_the_payload(self):
        for spec in (ModelSpec(), ModelSpec(L=2, d=8, H=1, N=2, vocab_size=16, Q=4, V=8)):
            model = generate_model(spec)
            assert len(model_payload(model)) == expected_payload_bytes(spec)

    def test_values_are_fan_in_scaled(self):
        spec = ModelSpec(seed=3, L=2, d=16, H=2, N=4, vocab_size=32, Q=4, V=8)
        model = generate_model(spec)
        assert np.max(np.abs(model.embedding)) <= 1.0 / np.sqrt(spec.d)
        for layer in model.layers:
            assert np.max(np.abs(layer.W_B)) <= 1.0 / np.sqrt(spec.d)
            assert np.max(np.abs(layer.W_out)) <= 1.0 / np.sqrt(spec.H)

    def test_normalization_scale_starts_at_one(self):
        model = generate_model(ModelSpec(seed=4, L=2))
        for layer in model.layers:
            assert np.array_equal(layer.gamma, np.ones(16))


class TestModelFile:
    SPEC = ModelSpec(seed=9, L=2, d=8, H=2, N=3, vocab_size=16, Q=4, V=8)

    def test_roundtrip_is_bit_exact(self, tmp_path):
        model = generate_model(self.SPEC)
        path = tmp_path / "m.ssdm"
        save_model(path, model)
        back = load_model(path)
        assert back.spec == model.spec
        assert np.array_equal(back.embedding, model.embedding)
        for la, lb in zip(model.layers, back.layers):
            for name in ("w_a", "b_a", "W_B", "W_C", "W_x", "W_out", "gamma"):
                assert np.array_equal(getattr(la, name), getattr(lb, name))

    def test_corrupted_payload_byte_raises_integrity_error(self, tmp_path):
        model = generate_model(self.SPEC)
        path = tmp_path / "m.ssdm"
        save_model(path, model)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0x40  # flip one bit deep inside the payload
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            load_model(path)

    def test_truncated_payload_raises_format_error(self, tmp_path):
        # length problems are structural and must win over checksum problems
        model = generate_model(self.SPEC)
        path = tmp_path / "m.ssdm"
        save_model(path, model)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(FormatError):
            load_model(path)

    def test_header_spec_payload_disagreement_raises_format_error(self, tmp_path):
        # header claims one more layer than the payload carries
        model = generate_model(self.SPEC)
        path = tmp_path / "m.ssdm"
        save_model(path, model)
        header, payload = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["spec"]["L"] = 3
        path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        with pytest.raises(FormatError):
            load_model(path)

    def test_header_spec_with_a_dense_limit_still_loads(self, tmp_path):
        # files written while the dense limit was a spec field carry it
        model = generate_model(self.SPEC)
        path = tmp_path / "m.ssdm"
        save_model(path, model)
        header, payload = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        assert "dense_limit" not in doc["spec"]
        doc["spec"]["dense_limit"] = 4096
        path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        back = load_model(path)
        assert back.spec == self.SPEC
        assert model_payload(back) == payload

    def test_missing_header_line_rejected(self, tmp_path):
        path = tmp_path / "m.ssdm"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(FormatError):
            load_model(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "m.ssdm"
        path.write_bytes(b"{oops\n" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_model(path)

    def test_wrong_format_marker_rejected(self, tmp_path):
        path = tmp_path / "m.ssdm"
        path.write_bytes(json.dumps({"format": "other", "version": 1}).encode() + b"\n")
        with pytest.raises(FormatError):
            load_model(path)

    def test_unsupported_version_rejected(self, tmp_path):
        model = generate_model(self.SPEC)
        path = tmp_path / "m.ssdm"
        save_model(path, model)
        header, payload = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["version"] = 2
        path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        with pytest.raises(FormatError):
            load_model(path)

    def test_loaded_model_computes_like_the_original(self, tmp_path):
        from ssdkit import horizontal_infer
        model = generate_model(self.SPEC)
        path = tmp_path / "m.ssdm"
        save_model(path, model)
        back = load_model(path)
        tok = np.arange(8)[None, :] % (self.SPEC.vocab_size - 1)
        assert np.array_equal(horizontal_infer(back, tok).hidden,
                              horizontal_infer(model, tok).hidden)


class TestSpecFiles:
    def test_config_roundtrip(self):
        spec = ModelSpec(seed=11, L=3, d=8, H=1, N=2, vocab_size=32, Q=2, V=4)
        assert spec_from_config(spec_to_config(spec)) == spec

    def test_unknown_fields_rejected(self):
        doc = spec_to_config(ModelSpec())
        doc["extra"] = 1
        with pytest.raises(FormatError):
            spec_from_config(doc)

    def test_non_object_rejected(self):
        with pytest.raises(FormatError):
            spec_from_config([1, 2, 3])

    @pytest.mark.parametrize("field,value", [
        ("L", 2.9), ("L", 2.0), ("d", True), ("H", "2"), ("N", None)])
    def test_non_integer_fields_rejected(self, field, value):
        # never truncated or coerced: {"L": 2.9} must not load as L=2
        doc = spec_to_config(ModelSpec())
        doc[field] = value
        with pytest.raises(FormatError, match=field):
            spec_from_config(doc)

    def test_a_dense_limit_field_is_read_and_dropped(self, tmp_path):
        spec = ModelSpec(seed=13, L=2, d=8, H=2, N=2, vocab_size=64, Q=8, V=16)
        doc = {**spec_to_config(spec), "dense_limit": 4096}
        assert spec_from_config(doc) == spec
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert load_model_spec(path) == spec

    @pytest.mark.parametrize("value", [0, -8, "lots", 4096.0, True, None])
    def test_a_bad_dense_limit_field_is_still_refused(self, value):
        doc = {**spec_to_config(ModelSpec()), "dense_limit": value}
        with pytest.raises(FormatError, match="dense_limit"):
            spec_from_config(doc)

    def test_file_roundtrip(self, tmp_path):
        spec = ModelSpec(seed=13, L=2, d=8, H=2, N=2, vocab_size=64, Q=8, V=16)
        path = tmp_path / "spec.json"
        save_model_spec(path, spec)
        assert load_model_spec(path) == spec

    def test_invalid_json_spec_file_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("nope")
        with pytest.raises(FormatError):
            load_model_spec(path)


SPEC_A = ModelSpec(seed=1, L=1, d=8, H=2, N=2, vocab_size=16, Q=4, V=8)
SPEC_B = ModelSpec(seed=2, L=1, d=8, H=2, N=2, vocab_size=16, Q=4, V=8)
RECORD = BenchRecord("recurrent", 16, 1, 0, 0, 0, 0.001, 320, 0, 0, 0)
WRITERS = {
    "model": (save_model, generate_model(SPEC_A), generate_model(SPEC_B)),
    "spec": (save_model_spec, SPEC_A, SPEC_B),
    "snapshot": (save_state_snapshot, np.zeros((2, 1, 2, 3)), np.ones((2, 1, 2, 3))),
    "records": (write_records, [RECORD], [RECORD, RECORD]),
}


class TestAtomicWrites:
    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_crash_mid_write_keeps_the_old_file(self, tmp_path, crash_atomic_writes, kind):
        write, old, new = WRITERS[kind]
        path = tmp_path / "target"
        write(path, old)
        before = path.read_bytes()
        undo = crash_atomic_writes()
        with pytest.raises(OSError, match="simulated crash"):
            write(path, new)
        undo()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]  # no temp file left behind
        write(path, new)
        assert path.read_bytes() != before
        assert list(tmp_path.iterdir()) == [path]
