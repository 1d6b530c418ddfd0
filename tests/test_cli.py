"""Command-line interface: subcommands run in process, exit codes pinned;
``TestModuleEntryPoint`` runs ``python -m ssdkit`` in a fresh interpreter.

0 = success, 1 = an equivalence check failed, 2 = usage or input error.
"""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ssdkit.cli as cli
from ssdkit import (
    CSV_HEADER,
    DEFAULT_DENSE_LIMIT,
    EquivalenceConfig,
    ModelSpec,
    SweepConfig,
    embed_sequence,
    generate_model,
    read_records,
    save_model,
    save_model_spec,
    tokenize_words,
)
from ssdkit.bench import BENCH_SPEC
from ssdkit.cli import _build_parser, main
from ssdkit.model_io import spec_to_config

ENVIRONMENT_KEYS = {"python", "numpy", "blas", "blas_threads", "cpus", "git_revision",
                    "git_dirty", "source_sha256"}
BENCH_ARGS = ["sweep", "--preset", "bench", "--grid-t", "8", "--grid-batch", "1",
              "--strategy", "recurrent", "--reps", "1", "--warmup", "0"]
EQ_ARGS = ["equivalence", "--grid-t", "4,16", "--grid-q", "2,4", "--grid-v", "16"]


class TestEquivalenceCommand:
    def test_clean_run_exits_zero_and_prints_lines(self, capsys):
        rc = main(EQ_ARGS)
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        assert "fault=None" in out.strip().splitlines()[-1]

    def test_fault_injection_exits_one(self, capsys):
        rc = main(EQ_ARGS + ["--inject-fault", "state-transition"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL]" in out

    def test_unknown_fault_name_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(EQ_ARGS + ["--inject-fault", "gremlins"])
        assert exc.value.code == 2

    def test_report_file_written(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        rc = main(EQ_ARGS + ["--out", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["passed"] is True
        assert doc["checks"]

    def test_the_old_dense_limit_env_var_is_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("SSD_CHUNK_DENSE_LIMIT", "8")
        rc = main(["equivalence", "--grid-t", "16", "--grid-q", "4", "--grid-v", "16"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dense-vs-recurrent" in out
        assert "model-dense" in out

    def test_model_flag_is_a_usage_error(self, tmp_path):
        # the suite builds its own model; a --model would be read and ignored
        with pytest.raises(SystemExit) as exc:
            main(EQ_ARGS + ["--model", str(tmp_path / "absent.ssdm")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--tolerance", "nan"], ["--tolerance", "-1"],
                                       ["--grid-t", ""]])
    def test_invalid_settings_are_usage_errors(self, capsys, flags):
        rc = main(EQ_ARGS + flags)
        captured = capsys.readouterr()
        assert rc == 2
        assert "[PASS]" not in captured.out
        assert "error:" in captured.err


class TestModuleEntryPoint:
    SRC = Path(__file__).resolve().parents[1] / "src"

    @pytest.mark.parametrize("args,rc,stream,text", [
        (EQ_ARGS, 0, "stdout", "[PASS]"),
        (["equivalence", "--grid-t", "4,x"], 2, "stderr", "expected comma-separated integers"),
    ], ids=["equivalence", "bad-grid"])
    def test_python_dash_m_runs_main(self, args, rc, stream, text):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "ssdkit", *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == rc, proc.stderr
        assert text in getattr(proc, stream)


class TestSweepAndReportCommands:
    def test_sweep_writes_csv_and_sidecar(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        rc = main(["sweep", "--grid-t", "8,16", "--grid-q", "4", "--grid-v", "8",
                   "--grid-batch", "1", "--strategy", "chunked-horizontal,vertical",
                   "--reps", "2", "--warmup", "0", "--out", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 2  # strategies x lengths x reps
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["reps"] == 2
        assert "model_spec" in meta
        assert set(meta["environment"]) == ENVIRONMENT_KEYS

    def test_bench_preset_writes_one_summary_per_cell(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH.json"
        rc = main(["sweep", "--preset", "bench", "--grid-t", "40", "--grid-batch", "1,2",
                   "--grid-v", "16", "--warmup", "0", "--out", str(out_path)])
        capsys.readouterr()
        assert rc == 0
        assert list(tmp_path.iterdir()) == [out_path]  # no CSV, no sidecar
        doc = json.loads(out_path.read_text())
        assert set(doc) == {"environment", "model_spec", "config", "timing_note", "cells"}
        assert set(doc["environment"]) == ENVIRONMENT_KEYS
        assert doc["model_spec"] == spec_to_config(BENCH_SPEC)
        assert doc["config"]["reps"] == 5 and doc["config"]["q_grid"] == [16]
        assert [(c["strategy"], c["batch"], c["V"]) for c in doc["cells"]] == [
            ("chunked-horizontal", 1, 0), ("chunked-horizontal", 2, 0),
            ("recurrent", 1, 0), ("recurrent", 2, 0), ("vertical", 1, 16), ("vertical", 2, 16)]
        for cell in doc["cells"]:
            assert set(cell) == {"strategy", "T", "batch", "Q", "V", "reps", "tokens_per_s_min",
                                 "tokens_per_s_median", "peak_elems", "flops",
                                 "traced_peak_bytes", "traced_over_ledger"}
            assert cell["reps"] == 5
            assert 0 < cell["tokens_per_s_min"] <= cell["tokens_per_s_median"]
            assert set(cell["flops"]) == {"intra", "propagate", "inter"}
            ratio = cell["traced_peak_bytes"] / (8 * cell["peak_elems"])
            assert cell["traced_over_ledger"] == ratio

    @staticmethod
    def bench_environment(tmp_path):
        """The environment block of a small bench-preset run."""
        out_path = tmp_path / "BENCH.json"
        assert main([*BENCH_ARGS, "--out", str(out_path)]) == 0
        return json.loads(out_path.read_text())["environment"]

    # every BENCH file is timed with BLAS on one thread: the preset sets that
    # itself and gives the process its own count back
    def test_bench_preset_times_on_one_blas_thread(self, tmp_path, capsys):
        blas = cli._openblas()
        if blas is None:
            pytest.skip("NumPy's OpenBLAS thread count cannot be set on this platform")
        get, put = blas
        was = get()
        put(2)
        try:
            before = get()
            environment = self.bench_environment(tmp_path)
            after = get()
        finally:
            put(was)
        capsys.readouterr()
        assert environment["blas_threads"] == 1
        assert after == before

    def test_bench_preset_without_a_blas_handle_records_none(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr(cli, "_openblas", lambda: None)
        assert self.bench_environment(tmp_path)["blas_threads"] is None
        capsys.readouterr()

    def test_sweep_records_parse_back(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        main(["sweep", "--grid-t", "8", "--grid-q", "4", "--grid-v", "8",
              "--grid-batch", "1", "--strategy", "recurrent", "--reps", "1",
              "--warmup", "0", "--out", str(out_path)])
        capsys.readouterr()
        records = read_records(out_path)
        assert len(records) == 1
        assert records[0].strategy == "recurrent"
        assert records[0].T == 8

    def test_report_aggregates_the_reps(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        main(["sweep", "--grid-t", "8", "--grid-q", "4", "--grid-v", "8",
              "--grid-batch", "1", "--strategy", "vertical", "--reps", "3",
              "--warmup", "0", "--out", str(out_path)])
        capsys.readouterr()
        rc = main(["report", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        header_line = [l for l in out.splitlines() if not l.startswith("#")][0]
        assert header_line.startswith("strategy,T,batch,Q,V,reps,wall_mean_s")
        data = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(data) == 1  # three reps fold into one cell
        assert data[0].split(",")[5] == "3"

    @pytest.mark.parametrize("extra", [["--reps", "0"], ["--warmup", "-1"],
                                       ["--grid-t", "0"], ["--grid-batch", ""]])
    def test_invalid_sweep_settings_exit_two_and_write_nothing(self, tmp_path, capsys,
                                                               extra):
        out_path = tmp_path / "sweep.csv"
        rc = main(["sweep", "--grid-t", "8", "--grid-q", "4", "--grid-v", "8",
                   "--grid-batch", "1", "--strategy", "recurrent", "--out",
                   str(out_path)] + extra)
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err
        assert list(tmp_path.iterdir()) == []

    def test_crash_mid_sidecar_write_keeps_the_old_sidecar(self, tmp_path, capsys,
                                                            crash_atomic_writes):
        out_path = tmp_path / "sweep.csv"
        meta_path = tmp_path / "sweep.csv.meta.json"
        args = ["sweep", "--grid-t", "8", "--grid-q", "4", "--grid-v", "8",
                "--grid-batch", "1", "--strategy", "recurrent", "--warmup", "0",
                "--out", str(out_path)]
        assert main(args + ["--reps", "1"]) == 0
        before = meta_path.read_bytes()
        undo = crash_atomic_writes(".meta.json")
        rc = main(args + ["--reps", "2"])
        undo()
        assert rc == 2
        assert "simulated crash" in capsys.readouterr().err
        assert meta_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv",
                                                               "sweep.csv.meta.json"]

    def test_report_out_flag_writes_a_file(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        main(["sweep", "--grid-t", "8", "--grid-q", "4", "--grid-v", "8",
              "--grid-batch", "1", "--strategy", "recurrent", "--reps", "1",
              "--warmup", "0", "--out", str(csv_path)])
        capsys.readouterr()
        agg_path = tmp_path / "agg.csv"
        rc = main(["report", str(csv_path), "--out", str(agg_path)])
        capsys.readouterr()
        assert rc == 0
        assert agg_path.read_text().count("\n") >= 3

    def test_report_on_missing_file_is_an_input_error(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "absent.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err

    @pytest.mark.parametrize("row", [
        "vertical,abc,1,4,8,0,0.5,1760,14720,128,768",   # T does not parse
        "vertical,32,1,4,8,0,fast,1760,14720,128,768",  # wall time does not parse
        "vertical,32,1,4,8,0,nan,1760,14720,128,768",
        "vertical,32,1,4,8,0,inf,1760,14720,128,768",
        "vertical,32,1,4,8,0,-0.5,1760,14720,128,768",
    ])
    def test_report_on_malformed_csv_is_an_input_error(self, tmp_path, capsys, row):
        csv_path = tmp_path / "sweep.csv"
        csv_path.write_text(CSV_HEADER + "\n" + row + "\n")
        rc = main(["report", str(csv_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err and str(row.split(",")) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("row", [
        "warp,-5,0,4,8,0,0.5,-1,1,2,3",                 # no such strategy, negative counts
        "vertical,0,1,4,8,0,0.5,1760,14720,128,768",    # T below 1
        "vertical,32,0,4,8,0,0.5,1760,14720,128,768",   # batch below 1
        "vertical,32,1,4,8,0,0.5,1760,-14720,128,768",  # negative flop count
        "vertical,32,1,0,0,0,0.5,1760,14720,128,768",   # vertical without Q and V
        "recurrent,32,1,4,8,0,0.5,320,0,0,0",           # unchunked with Q and V
        "chunked-horizontal,32,1,4,8,0,0.5,912,7360,64,320",  # horizontal with V
    ])
    def test_report_on_impossible_rows_is_an_input_error(self, tmp_path, capsys, row):
        csv_path = tmp_path / "sweep.csv"
        csv_path.write_text(CSV_HEADER + "\n" + row + "\n")
        rc = main(["report", str(csv_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err and str(row.split(",")) in captured.err
        assert captured.out == ""

    def test_sweep_skips_dense_cells_above_the_limit(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        rc = main(["sweep", "--strategy", "dense", "--grid-t", f"8,{DEFAULT_DENSE_LIMIT + 1}",
                   "--grid-batch", "1", "--reps", "1", "--warmup", "0", "--out", str(out_path)])
        assert rc == 0
        assert "skip dense T=4097: exceeds dense limit 4096" in capsys.readouterr().err
        assert [r.T for r in read_records(out_path)] == [8]
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["model_spec"] == spec_to_config(ModelSpec())
        assert "dense_limit" not in meta["model_spec"]

    def test_environment_hashes_the_package_source(self):
        if shutil.which("sha256sum") is None:
            pytest.skip("sha256sum is not installed")
        package = Path(cli.__file__).parent
        names = sorted(p.name for p in package.glob("*.py"))
        listing = subprocess.run(["sha256sum", *names], cwd=package, capture_output=True,
                                 check=True, timeout=60).stdout
        assert cli._environment()["source_sha256"] == hashlib.sha256(listing).hexdigest()


class TestOutDirectory:
    # a missing --out directory is found before any work, not after a long sweep
    @pytest.mark.parametrize("argv", [
        EQ_ARGS, ["sweep", "--grid-t", "8", "--strategy", "recurrent"], BENCH_ARGS,
        ["embed", "input.txt"], ["report", "sweep.csv"],
    ], ids=["equivalence", "sweep", "bench-preset", "embed", "report"])
    def test_missing_out_directory_exits_two_before_any_work(self, tmp_path, capsys,
                                                             monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("run_equivalence", "run_sweep", "embed_sequence", "read_records"):
            monkeypatch.setattr(cli, name, never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "input.txt").write_text("some words\n")
        out = str(tmp_path / "no-such-dir" / "result.out")
        rc = main([*argv, "--out", out])
        assert rc == 2
        assert f"error: --out {out}: directory " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["input.txt"]

    # an existing directory as --out is refused before any work too, naming
    # the path given rather than the temp file an atomic write would rename
    @pytest.mark.parametrize("argv", [
        EQ_ARGS, ["sweep", "--grid-t", "8", "--strategy", "recurrent"], BENCH_ARGS,
        ["embed", "input.txt"], ["report", "sweep.csv"],
    ], ids=["equivalence", "sweep", "bench-preset", "embed", "report"])
    def test_existing_directory_out_exits_two_before_any_work(self, tmp_path, capsys,
                                                              monkeypatch, argv):
        def never(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("run_equivalence", "run_sweep", "embed_sequence", "read_records"):
            monkeypatch.setattr(cli, name, never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "input.txt").write_text("some words\n")
        (tmp_path / "outdir").mkdir()
        rc = main([*argv, "--out", "outdir"])
        assert rc == 2
        assert capsys.readouterr().err == "error: --out outdir is a directory\n"
        assert list((tmp_path / "outdir").iterdir()) == []


class TestConfigFlags:
    # every field is set from a flag, except layers (set by the acceptance
    # tests only)
    @pytest.mark.parametrize("argv,config", [
        (["equivalence", "--seed", "1", "--tolerance", "1e-8", "--grid-t", "4",
          "--grid-q", "2", "--grid-v", "16", "--inject-fault", "state-transition",
          "--out", "r.json"], EquivalenceConfig),
        (["sweep", "--model", "m.ssdm", "--seed", "1", "--grid-t", "8", "--grid-q", "4",
          "--grid-v", "8", "--grid-batch", "1", "--strategy", " dense, vertical,",
          "--reps", "2", "--warmup", "0", "--out", "s.csv"], SweepConfig),
    ])
    def test_every_config_field_has_a_flag(self, argv, config):
        args = vars(_build_parser().parse_args(argv))
        names = {f.name for f in fields(config)} - {"layers"}
        assert names <= set(args)
        config(**{name: args[name] for name in names})  # each flag parses to its field

    def test_absent_flags_leave_the_config_defaults(self):
        args = vars(_build_parser().parse_args(["equivalence"]))
        assert set(args) == {"command", "out"}


class TestEmbedCommand:
    TEXT = "the quick brown fox jumps over the lazy dog\n"

    def test_output_round_trips_to_the_library_vector(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text(self.TEXT)
        rc = main(["embed", str(src)])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        got = np.array([float(v) for v in out.split(",")])
        model = generate_model(ModelSpec(seed=42))
        ids = tokenize_words(self.TEXT, model.spec.vocab_size)
        ref = embed_sequence(model, ids, chunk_size=model.spec.Q).vector
        # 17 significant digits reproduce each double exactly
        assert np.array_equal(got, ref)

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.TEXT))
        rc = main(["embed", "-"])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        assert len(out.split(",")) == 16

    def test_vertical_flag_matches_horizontal(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text(self.TEXT)
        main(["embed", str(src)])
        horizontal = capsys.readouterr().out.strip()
        rc = main(["embed", str(src), "--vertical", "--v", "4", "--q", "4"])
        vertical = capsys.readouterr().out.strip()
        assert rc == 0
        got_h = np.array([float(v) for v in horizontal.split(",")])
        got_v = np.array([float(v) for v in vertical.split(",")])
        assert np.max(np.abs(got_h - got_v)) <= 1e-9 * np.max(np.abs(got_h))

    def test_the_block_length_needs_the_vertical_flag(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text(self.TEXT)
        rc = main(["embed", str(src), "--v", "32"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "--vertical" in captured.err
        assert captured.out == ""

    # --v alone sets the block length; the retired --memory-cap, which was
    # --v at the chunk size, is an unknown flag
    @pytest.mark.parametrize("flags", [["--vertical"], ["--vertical", "--q", "4"],
                                       ["--vertical", "--v", "64"], []])
    def test_memory_cap_is_a_usage_error(self, tmp_path, capsys, flags):
        src = tmp_path / "in.txt"
        src.write_text(self.TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["embed", str(src), "--memory-cap"] + flags)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--memory-cap" in captured.err
        assert captured.out == ""

    def test_zero_chunk_size_is_an_input_error(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text(self.TEXT)
        rc = main(["embed", str(src), "--vertical", "--q", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "chunk size" in captured.err
        assert captured.out == ""

    def test_a_chunk_over_the_dense_limit_is_an_input_error(self, tmp_path, capsys):
        # refused before the call: one chunk of 5,000 rows would hold a
        # (5,000, 5,000) mask per head for a few tokens
        src = tmp_path / "in.txt"
        src.write_text(self.TEXT)
        rc = main(["embed", str(src), "--q", "5000"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "dense limit" in captured.err
        assert captured.out == ""

    def test_format_query_wraps_the_text(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("what is a kernel")
        main(["embed", str(src)])
        plain = capsys.readouterr().out
        rc = main(["embed", str(src), "--format-query", "Retrieve passages"])
        wrapped = capsys.readouterr().out
        assert rc == 0
        assert plain != wrapped  # template words change the token stream

    def test_out_flag_writes_a_file(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text(self.TEXT)
        dst = tmp_path / "vec.txt"
        rc = main(["embed", str(src), "--out", str(dst)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ""
        assert len(dst.read_text().strip().split(",")) == 16

    def test_empty_input_is_an_input_error(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("   \n\t ")
        rc = main(["embed", str(src)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "no tokens" in err

    def test_missing_input_file_is_an_input_error(self, tmp_path, capsys):
        rc = main(["embed", str(tmp_path / "absent.txt")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err

    @pytest.mark.parametrize("args", [["embed", "{bad}"], ["embed", "-"],
                                      ["embed", "--model", "{bad}.json", "{good}"],
                                      ["report", "{bad}"]],
                             ids=["embed-file", "embed-stdin", "model-spec", "report-csv"])
    def test_text_that_is_not_utf8_is_an_input_error(self, tmp_path, capsys, monkeypatch,
                                                      args):
        raw = b"hello \xff\xfe world\n"
        (tmp_path / "bad").write_bytes(raw)
        (tmp_path / "bad.json").write_bytes(raw)
        (tmp_path / "good").write_text(self.TEXT)
        # stdin strict, as under a UTF-8 locale; under UTF-8 mode it would
        # carry the bad bytes as lone surrogates, which the tokenizer refuses
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        rc = main([a.format(bad=tmp_path / "bad", good=tmp_path / "good") for a in args])
        captured = capsys.readouterr()
        assert rc == 2
        assert "utf-8" in captured.err and captured.out == ""

    def test_stdin_bytes_escaped_to_surrogates_are_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("hello \udcff\udcfe world\n"))
        rc = main(["embed", "-"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err and captured.out == ""

    def test_model_file_argument(self, tmp_path, capsys):
        spec = ModelSpec(seed=5, L=2, d=8, H=2, N=2, vocab_size=32, Q=4, V=8)
        model_path = tmp_path / "m.ssdm"
        save_model(model_path, generate_model(spec))
        src = tmp_path / "in.txt"
        src.write_text(self.TEXT)
        rc = main(["embed", str(src), "--model", str(model_path)])
        out = capsys.readouterr().out.strip()
        assert rc == 0
        assert len(out.split(",")) == 8  # that model's channel count

    @pytest.mark.parametrize("model_name", ["m.ssdm", "spec.json"])
    def test_seed_with_a_model_is_a_usage_error(self, tmp_path, model_name):
        # the model fixes the parameters; a seed beside it would go unread
        spec = ModelSpec(seed=5, L=2, d=8, H=2, N=2, vocab_size=32, Q=4, V=8)
        model_path = tmp_path / model_name
        if model_name.endswith(".json"):
            save_model_spec(model_path, spec)
        else:
            save_model(model_path, generate_model(spec))
        src = tmp_path / "in.txt"
        src.write_text(self.TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["embed", str(src), "--model", str(model_path), "--seed", "5"])
        assert exc.value.code == 2

    def test_model_spec_argument(self, tmp_path, capsys):
        spec = ModelSpec(seed=5, L=2, d=8, H=2, N=2, vocab_size=32, Q=4, V=8)
        spec_path = tmp_path / "spec.json"
        save_model_spec(spec_path, spec)
        model_path = tmp_path / "m.ssdm"
        save_model(model_path, generate_model(spec))
        src = tmp_path / "in.txt"
        src.write_text(self.TEXT)
        main(["embed", str(src), "--model", str(spec_path)])
        from_spec = capsys.readouterr().out
        main(["embed", str(src), "--model", str(model_path)])
        from_file = capsys.readouterr().out
        assert from_spec == from_file

    def test_a_spec_whose_chunk_no_call_runs_is_refused_on_load(self, tmp_path, capsys):
        # Q over the dense limit: every default call would refuse it, so the spec does
        spec = ModelSpec(seed=5, L=2, d=8, H=2, N=2, vocab_size=32, Q=4, V=8)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**spec_to_config(spec), "Q": DEFAULT_DENSE_LIMIT + 1,
                                         "V": DEFAULT_DENSE_LIMIT + 1}))
        src = tmp_path / "in.txt"
        src.write_text(self.TEXT)
        rc = main(["embed", str(src), "--model", str(spec_path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "spec document: ModelSpec.Q 4097 exceeds dense limit 4096" in captured.err

    def test_corrupt_model_file_is_an_input_error(self, tmp_path, capsys):
        spec = ModelSpec(seed=5, L=1, d=8, H=1, N=2, vocab_size=16, Q=4, V=8)
        model_path = tmp_path / "m.ssdm"
        save_model(model_path, generate_model(spec))
        raw = bytearray(model_path.read_bytes())
        raw[-3] ^= 0x10
        model_path.write_bytes(bytes(raw))
        src = tmp_path / "in.txt"
        src.write_text(self.TEXT)
        rc = main(["embed", str(src), "--model", str(model_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "checksum" in err
