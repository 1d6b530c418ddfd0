"""Equivalence suite behavior, fault sensitivity, timing sweeps, CSV round trips."""

from dataclasses import replace

import numpy as np
import pytest

from ssdkit import (
    CSV_HEADER,
    FAULT_MODES,
    STRATEGIES,
    BenchRecord,
    EquivalenceConfig,
    ModelSpec,
    SweepConfig,
    ValidationError,
    generate_model,
    read_records,
    run_equivalence,
    run_sweep,
    summarize_records,
    write_records,
)
from ssdkit.bench import relative_error

SMALL_EQ = EquivalenceConfig(t_grid=(4, 16, 33), q_grid=(2, 4), v_grid=(16,), layers=2)

SWEEP_MODEL_SPEC = ModelSpec(seed=40, L=2, d=8, H=1, N=2, vocab_size=32, Q=4, V=8)


@pytest.fixture(scope="module")
def records():
    model = generate_model(SWEEP_MODEL_SPEC)
    config = SweepConfig(t_grid=(16, 32), batch_grid=(1,), q_grid=(4,),
                         v_grid=(8,), reps=2, warmup=1)
    return run_sweep(model, config)


class TestRelativeError:
    def test_exact_match_is_zero(self):
        assert relative_error(np.ones(4), np.ones(4)) == 0.0

    def test_scales_by_the_reference_magnitude(self):
        assert relative_error(np.full(3, 2.0), np.full(3, 1.0)) == 1.0
        assert relative_error(np.full(3, 200.0), np.full(3, 100.0)) == 1.0

    def test_zero_reference_uses_the_floor(self):
        # tiny absolute noise against a zero reference must read as huge
        assert relative_error(np.array([1e-20]), np.zeros(1)) > 1.0


class TestEquivalenceSuite:
    def test_clean_run_passes(self):
        report = run_equivalence(SMALL_EQ)
        assert report.passed
        assert report.max_rel_err <= SMALL_EQ.tolerance
        assert report.failed_instances() == []

    def test_covers_kernel_stage_and_model_checks(self):
        report = run_equivalence(SMALL_EQ)
        names = {c.name for c in report.checks}
        assert "dense-vs-recurrent" in names
        assert "chunked-q2" in names
        assert any(n.startswith("stage-intra") for n in names)
        assert any(n.startswith("stage-boundary") for n in names)
        assert any(n.startswith("stage-correction") for n in names)
        assert "model-chunked" in names
        assert "model-dense" in names
        assert "vertical-v16" in names

    def test_instances_label_the_sequence_length(self):
        report = run_equivalence(SMALL_EQ)
        assert {c.instance for c in report.checks} == {"T=4", "T=16", "T=33"}
        assert set(report.multi_chunk_instances()) == {"T=4", "T=16", "T=33"}

    def test_report_dictionary_shape(self):
        report = run_equivalence(SMALL_EQ)
        doc = report.to_dict()
        assert doc["passed"] is True
        assert doc["fault"] is None
        assert len(doc["checks"]) == len(report.checks)
        assert {"instance", "name", "multi_chunk", "max_rel_err", "tolerance",
                "passed"} <= set(doc["checks"][0])

    def test_check_lines_are_printable(self):
        report = run_equivalence(SMALL_EQ)
        line = report.checks[0].line()
        assert line.startswith("[PASS]") or line.startswith("[FAIL]")
        assert "max_rel_err=" in line

    @pytest.mark.parametrize("fault", FAULT_MODES)
    def test_each_fault_fails_every_multi_chunk_instance(self, fault):
        config = EquivalenceConfig(t_grid=(16, 33), q_grid=(2, 4), v_grid=(16,),
                                   layers=2, fault=fault)
        report = run_equivalence(config)
        assert not report.passed
        multi = set(report.multi_chunk_instances())
        assert multi  # the grid must actually exercise multi-chunk runs
        assert multi <= set(report.failed_instances())

    def test_single_chunk_grid_cannot_witness_intra_faults(self):
        # T=1 never splits, so the intra-stage faults are structurally inert;
        # this pins why the acceptance grid keeps multi-chunk instances
        config = EquivalenceConfig(t_grid=(1,), q_grid=(2,), v_grid=(16,),
                                   layers=1, fault="intra-output-mask")
        report = run_equivalence(config)
        assert report.multi_chunk_instances() == []
        assert report.passed

    def test_dense_checks_drop_out_beyond_the_limit(self):
        config = EquivalenceConfig(t_grid=(16, 33), q_grid=(4,), v_grid=(16,),
                                   layers=1, dense_limit=16)
        report = run_equivalence(config)
        names = {(c.instance, c.name) for c in report.checks}
        assert ("T=16", "dense-vs-recurrent") in names
        assert ("T=33", "dense-vs-recurrent") not in names
        assert report.passed

    @pytest.mark.parametrize("field,value", [
        ("tolerance", float("nan")), ("tolerance", float("inf")), ("tolerance", 0.0),
        ("tolerance", -1e-9), ("t_grid", ()), ("q_grid", ()), ("v_grid", ()),
        ("t_grid", (4, 0)), ("q_grid", (-2,)), ("v_grid", (16, 0)), ("layers", 0),
        ("dense_limit", 0),
    ])
    def test_config_rejects_bad_tolerance_and_non_positive_fields(self, field, value):
        with pytest.raises(ValidationError):
            EquivalenceConfig(**{field: value})


class TestSweep:
    def test_every_strategy_is_timed(self, records):
        assert {r.strategy for r in records} == set(STRATEGIES)

    def test_rep_count_per_cell(self, records):
        cells = {}
        for r in records:
            cells.setdefault((r.strategy, r.T, r.batch, r.Q, r.V), []).append(r.rep)
        for key, reps in cells.items():
            assert sorted(reps) == [0, 1], key

    def test_records_are_sorted_and_sane(self, records):
        assert records == sorted(records, key=BenchRecord.sort_key)
        for r in records:
            assert r.wall_time_s > 0.0
            assert r.peak_elems > 0
            assert r.flops_intra >= 0

    def test_unchunked_strategies_record_zero_grid_fields(self, records):
        for r in records:
            if r.strategy in ("recurrent", "dense"):
                assert (r.Q, r.V) == (0, 0)
            if r.strategy == "chunked-horizontal":
                assert r.V == 0

    def test_vertical_peak_is_flat_across_lengths(self, records):
        # both lengths exceed the block, so the schedule never delegates
        peaks = {r.T: r.peak_elems for r in records if r.strategy == "vertical"}
        assert peaks[16] == peaks[32]

    def test_flop_counts_are_rep_invariant(self, records):
        for r in records:
            twin = [s for s in records
                    if s.sort_key()[:5] == r.sort_key()[:5] and s.rep != r.rep]
            for s in twin:
                assert (s.flops_intra, s.flops_prop, s.flops_inter) == \
                       (r.flops_intra, r.flops_prop, r.flops_inter)

    def test_dense_cells_are_pruned_beyond_the_limit(self):
        model = generate_model(replace(SWEEP_MODEL_SPEC, dense_limit=16))
        messages = []
        config = SweepConfig(t_grid=(16, 32), batch_grid=(1,), q_grid=(4,), v_grid=(8,),
                             strategies=("dense",), reps=1, warmup=0)
        records = run_sweep(model, config, log=messages.append)
        assert {r.T for r in records} == {16}
        assert any("skip dense T=32" in m for m in messages)

    def test_misaligned_vertical_cells_are_pruned(self):
        model = generate_model(SWEEP_MODEL_SPEC)
        messages = []
        config = SweepConfig(t_grid=(16,), batch_grid=(1,), q_grid=(4,), v_grid=(6, 8),
                             strategies=("vertical",), reps=1, warmup=0)
        records = run_sweep(model, config, log=messages.append)
        assert {r.V for r in records} == {8}
        assert any("V not a multiple of Q" in m for m in messages)

    def test_unknown_strategy_rejected(self):
        model = generate_model(SWEEP_MODEL_SPEC)
        with pytest.raises(ValidationError):
            run_sweep(model, SweepConfig(strategies=("warp",)))

    @pytest.mark.parametrize("field,value", [
        ("reps", 0), ("warmup", -1), ("strategies", ()), ("t_grid", ()),
        ("batch_grid", ()), ("q_grid", ()), ("v_grid", ()), ("t_grid", (16, 0)),
        ("batch_grid", (0,)), ("q_grid", (-4,)), ("v_grid", (8, 0)),
    ])
    def test_config_rejects_empty_or_non_positive_fields(self, field, value):
        with pytest.raises(ValidationError):
            SweepConfig(**{field: value})


class TestRecordsCsv:
    RECORDS = [
        BenchRecord("recurrent", 16, 1, 0, 0, 0, 0.001234, 320, 0, 0, 0),
        BenchRecord("chunked-horizontal", 16, 1, 4, 0, 0, 0.000987, 912, 7360, 64, 320),
        BenchRecord("chunked-horizontal", 16, 1, 4, 0, 1, 0.0009909090909090909, 912, 7360, 64, 320),
        BenchRecord("vertical", 32, 2, 4, 8, 0, 0.5, 1760, 14720, 128, 768),
    ]

    def test_header_constant(self):
        assert CSV_HEADER == ("strategy,T,batch,Q,V,rep,wall_time_s,peak_elems,"
                              "flops_intra,flops_prop,flops_inter")

    def test_roundtrip_preserves_every_field(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_records(path, self.RECORDS)
        assert read_records(path) == self.RECORDS

    def test_wall_times_roundtrip_bit_exact(self, tmp_path):
        # repr() emits the shortest decimal that parses back to the same float
        path = tmp_path / "sweep.csv"
        write_records(path, self.RECORDS)
        back = read_records(path)
        for a, b in zip(self.RECORDS, back):
            assert a.wall_time_s == b.wall_time_s

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_records(path, self.RECORDS)
        body = path.read_text().splitlines()
        body[0] = "strategy,T"
        path.write_text("\n".join(body) + "\n")
        with pytest.raises(ValidationError):
            read_records(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_records(path, self.RECORDS)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("vertical,32\n")
        with pytest.raises(ValidationError):
            read_records(path)

    @pytest.mark.parametrize("column,value", [(1, "abc"), (3, "4.5"), (6, "fast"),
                                              (6, "nan"), (6, "-inf"), (6, "-1e-3"),
                                              (10, "")])
    def test_unparsable_or_bad_cell_rejected(self, tmp_path, column, value):
        path = tmp_path / "sweep.csv"
        write_records(path, self.RECORDS)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = value
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="CSV row"):
            read_records(path)

    @pytest.mark.parametrize("column,value", [(0, "warp"), (0, "Vertical"), (1, "0"),
                                              (2, "0"), (2, "-5"), (3, "-1"), (4, "-8"),
                                              (5, "-1"), (7, "-1"), (8, "-1"), (9, "-2"),
                                              (10, "-3"), (0, "recurrent"), (0, "dense"),
                                              (0, "chunked-horizontal"), (3, "0"),
                                              (4, "0"), (4, "6")])
    def test_impossible_row_rejected(self, tmp_path, column, value):
        # a strategy outside STRATEGIES, T or batch below 1, a negative count,
        # Q or V contradicting the strategy (the row is vertical, Q = 4, V = 8)
        path = tmp_path / "sweep.csv"
        write_records(path, self.RECORDS)
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[column] = value
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="CSV row") as info:
            read_records(path)
        assert str(cells) in str(info.value)

    def test_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_records(path, self.RECORDS)
        text = path.read_text()
        path.write_text("# methodology note\n" + text)
        assert read_records(path) == self.RECORDS

    def test_summary_aggregates_reps(self):
        rows = summarize_records(self.RECORDS)
        assert len(rows) == 3  # two chunked reps collapse into one cell
        cell = next(r for r in rows if r["strategy"] == "chunked-horizontal")
        assert cell["reps"] == 2
        assert cell["wall_min_s"] == 0.000987
        assert cell["wall_max_s"] == 0.0009909090909090909
        assert cell["peak_elems"] == 912
        assert cell["flops_total"] == 7360 + 64 + 320
