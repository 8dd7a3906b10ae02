"""Tests for the command-line interface."""

import json

import pytest

import repro.cli as cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--dataset", "puffer"],
            ["session", "soda", "--scenario", "spike"],
            ["trace", "--dataset", "4g"],
            ["decide", "--throughput", "5", "--buffer", "10"],
            ["tune", "--dataset", "puffer"],
            ["robustness", "--dataset", "4g", "--resilient"],
            ["robustness", "--dataset", "4g", "--strict-audit"],
            ["compare", "--dataset", "puffer", "--strict-audit"],
            ["serve", "--sessions", "10", "--deadline", "0.05"],
            ["soak", "--intensity", "0.4", "--crash-rate", "0.05"],
            ["soak", "--shards", "2", "--kill-at", "40"],
            ["serve", "--out", "BENCH_service.json"],
            ["table", "build", "out.sodatbl", "--table-points", "24"],
            ["table", "inspect", "out.sodatbl"],
            ["population", "--sessions", "1000"],
            ["population", "--checkpoint", "pop.npz", "--resume"],
            ["population", "--serve", "--shards", "2", "--kill-at", "50"],
            ["population", "--backend", "solver", "--storm-intensity", "2"],
        ],
    )
    def test_valid_invocations_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)

    def test_serve_and_soak_chaos_flag(self):
        assert build_parser().parse_args(["serve"]).chaos is False
        assert build_parser().parse_args(["soak"]).chaos is True


class TestCommands:
    def test_decide(self, capsys):
        assert main(["decide", "--throughput", "30", "--buffer", "10",
                     "--prev", "2"]) == 0
        out = capsys.readouterr().out
        assert "decision:" in out
        assert "planned sequence" in out

    def test_decide_defer_region(self, capsys):
        assert main(["decide", "--throughput", "500", "--buffer", "19"]) == 0
        assert "defer" in capsys.readouterr().out

    def test_session_scenario(self, capsys):
        assert main(["session", "bola", "--scenario", "step-up",
                     "--duration", "120"]) == 0
        out = capsys.readouterr().out
        assert "qoe=" in out

    def test_session_timeline(self, capsys):
        assert main(["session", "soda", "--scenario", "spike",
                     "--duration", "120", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "download" in out

    def test_trace_generate_and_summarize(self, tmp_path, capsys):
        out_csv = tmp_path / "trace.csv"
        assert main(["trace", "--dataset", "5g", "--duration", "60",
                     "--out", str(out_csv)]) == 0
        assert out_csv.exists()
        assert main(["trace", "--summarize", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "mean=" in out

    def test_compare_small(self, capsys):
        assert main(["compare", "--dataset", "4g", "--sessions", "1",
                     "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "soda" in out and "dynamic" in out

    def test_tune_small(self, capsys):
        assert main(["tune", "--dataset", "puffer", "--sessions", "1",
                     "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out

    def test_robustness_small(self, capsys):
        assert main(["robustness", "--dataset", "4g", "--sessions", "1",
                     "--duration", "60", "--intensities", "0,0.3"]) == 0
        out = capsys.readouterr().out
        assert "qoe@0.30" in out
        assert "soda" in out

    def test_serve_small(self, capsys, tmp_path):
        health = tmp_path / "health.json"
        assert main(["serve", "--sessions", "8", "--segments", "5",
                     "--threads", "4", "--table-points", "0",
                     "--max-in-flight", "8", "--max-sessions", "16",
                     "--health-json", str(health)]) == 0
        out = capsys.readouterr().out
        assert "=== serve:" in out
        assert "all serving invariants held" in out
        payload = json.loads(health.read_text())
        assert payload["live"] is True
        assert payload["stats"]["decisions"] == 40

    def test_soak_small(self, capsys, tmp_path):
        health = tmp_path / "health.json"
        assert main(["soak", "--sessions", "30", "--segments", "10",
                     "--threads", "6", "--seed", "3", "--table-points", "8",
                     "--max-in-flight", "2", "--max-sessions", "16",
                     "--burst-at", "10",
                     "--health-json", str(health)]) == 0
        out = capsys.readouterr().out
        assert "=== soak:" in out
        assert "breaker:" in out
        payload = json.loads(health.read_text())
        assert payload["breaker_full_cycles"] >= 1
        assert payload["stats"]["tier2_decisions"] > 0

    def test_sharded_soak_kills_and_rehomes(self, capsys, tmp_path):
        health = tmp_path / "fleet.json"
        perf = tmp_path / "bench.json"
        assert main(["soak", "--shards", "2", "--sessions", "12",
                     "--segments", "8", "--threads", "4", "--seed", "7",
                     "--table-points", "8", "--deadline", "0.25",
                     "--health-json", str(health),
                     "--out", str(perf)]) == 0
        out = capsys.readouterr().out
        assert "=== soak:" in out
        assert "fleet: shards=2" in out
        assert "all serving invariants held" in out
        fleet = json.loads(health.read_text())
        assert fleet["shards"] == 2
        assert fleet["worker_deaths"] >= 1
        assert fleet["worker_restarts"] >= 1
        assert fleet["sessions_rehomed"] >= 1
        assert "evictions" in fleet["rollup"]
        runs = json.loads(perf.read_text())["runs"]
        assert len(runs) == 1
        assert runs[0]["mode"] == "soak"
        assert runs[0]["shards"] == 2
        assert runs[0]["violations"] == 0
        assert "timestamp" in runs[0]

    def test_out_appends_to_existing_journal(self, capsys, tmp_path):
        perf = tmp_path / "bench.json"
        argv = ["serve", "--sessions", "4", "--segments", "3",
                "--threads", "2", "--table-points", "0",
                "--out", str(perf)]
        assert main(argv) == 0
        assert main(argv) == 0
        runs = json.loads(perf.read_text())["runs"]
        assert len(runs) == 2
        assert all(run["mode"] == "serve" for run in runs)

    def test_out_tolerates_non_journal_file(self, capsys, tmp_path):
        # A malformed journal must not cost the run that just finished:
        # warn, start a fresh one, and still record the new entry.
        perf = tmp_path / "bench.json"
        perf.write_text("this is not json\n")
        assert main(["serve", "--sessions", "4", "--segments", "3",
                     "--threads", "2", "--table-points", "0",
                     "--out", str(perf)]) == 0
        captured = capsys.readouterr()
        assert "not a perf journal" in captured.err
        runs = json.loads(perf.read_text())["runs"]
        assert len(runs) == 1
        assert runs[0]["mode"] == "serve"

    def test_out_skips_malformed_entries_keeps_good_ones(
        self, capsys, tmp_path
    ):
        perf = tmp_path / "bench.json"
        perf.write_text(json.dumps(
            {"runs": [{"mode": "old", "ok": True}, "garbage", 7]}
        ))
        assert main(["serve", "--sessions", "4", "--segments", "3",
                     "--threads", "2", "--table-points", "0",
                     "--out", str(perf)]) == 0
        captured = capsys.readouterr()
        assert "skipping malformed entry" in captured.err
        runs = json.loads(perf.read_text())["runs"]
        assert [run.get("mode") for run in runs] == ["old", "serve"]


class TestTableCommand:
    def test_build_then_inspect(self, capsys, tmp_path):
        path = tmp_path / "table.sodatbl"
        assert main(["table", "build", str(path),
                     "--table-points", "6"]) == 0
        assert path.exists()
        assert "wrote" in capsys.readouterr().out
        assert main(["table", "inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid decision table" in out
        assert "6 throughput x 6 buffer points" in out
        assert "table version: 1" in out
        assert "crc32" in out

    def test_build_stamps_requested_version(self, capsys, tmp_path):
        path = tmp_path / "table.sodatbl"
        assert main(["table", "build", str(path), "--table-points", "6",
                     "--table-version", "7"]) == 0
        assert "v7" in capsys.readouterr().out
        assert main(["table", "inspect", str(path)]) == 0
        assert "table version: 7" in capsys.readouterr().out

    def test_inspect_missing_file_exits_2(self, capsys):
        assert main(["table", "inspect", "/no/such/table.sodatbl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert err.count("\n") == 1

    def test_inspect_corrupt_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "table.sodatbl"
        assert main(["table", "build", str(path),
                     "--table-points", "6"]) == 0
        capsys.readouterr()
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])  # truncate inside the decision array
        assert main(["table", "inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "truncated" in err
        assert err.count("\n") == 1

    def test_build_validation(self, capsys):
        assert main(["table", "build", "/tmp/t.sodatbl",
                     "--table-points", "1"]) == 2
        assert "--table-points" in capsys.readouterr().err


class TestPopulationCommand:
    def test_tiny_run_with_report_and_perf_entry(self, capsys, tmp_path):
        report = tmp_path / "fleet.json"
        out = tmp_path / "BENCH_population.json"
        assert main([
            "population", "--sessions", "400", "--duration-hours", "0.05",
            "--tick", "4", "--table-points", "8", "--quiet",
            "--report", str(report), "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "rebuffer-SLO" in text
        fleet = json.loads(report.read_text())["fleet"]["fleet"]
        assert fleet["arrivals"] == (
            fleet["finished"] + fleet["shed"] + fleet["censored"]
        )
        runs = json.loads(out.read_text())["runs"]
        assert runs[-1]["mode"] == "population"
        assert runs[-1]["decisions"] > 0

    def test_serve_excludes_checkpoints(self, capsys):
        assert main(["population", "--serve",
                     "--checkpoint", "pop.npz"]) == 2
        assert "deterministic" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["population", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err


class _StubSuite:
    """Minimal stand-in for a SuiteResult in strict-audit tests."""

    def __init__(self, flagged_count):
        self.flagged_count = flagged_count
        self.failure_count = 0

    def summaries(self):
        return []

    def failure_lines(self):
        return []


class TestStrictAudit:
    def _patch_suite(self, monkeypatch, flagged_count):
        monkeypatch.setattr(
            cli, "run_suite",
            lambda *a, **k: _StubSuite(flagged_count),
        )

    def test_compare_flagged_sessions_exit_2(self, monkeypatch, capsys):
        self._patch_suite(monkeypatch, flagged_count=3)
        assert main(["compare", "--dataset", "4g", "--sessions", "1",
                     "--duration", "30", "--strict-audit"]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err
        assert "--strict-audit" in err and "3 session(s)" in err

    def test_compare_flagged_without_flag_exit_0(self, monkeypatch, capsys):
        self._patch_suite(monkeypatch, flagged_count=3)
        assert main(["compare", "--dataset", "4g", "--sessions", "1",
                     "--duration", "30"]) == 0

    def test_compare_clean_with_flag_exit_0(self, monkeypatch, capsys):
        self._patch_suite(monkeypatch, flagged_count=0)
        assert main(["compare", "--dataset", "4g", "--sessions", "1",
                     "--duration", "30", "--strict-audit"]) == 0

    def test_robustness_strict_audit_end_to_end(self, capsys):
        # A clean sweep has nothing flagged: strict audit must not trip.
        assert main(["robustness", "--dataset", "4g", "--sessions", "1",
                     "--duration", "60", "--intensities", "0",
                     "--strict-audit"]) == 0


class TestErrorHandling:
    """Operational errors exit with code 2 and a one-line message."""

    def test_missing_trace_csv(self, capsys):
        assert main(["session", "soda", "--trace-csv", "/no/such/file.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert err.count("\n") == 1

    def test_missing_summarize_file(self, capsys):
        assert main(["trace", "--summarize", "/no/such/file.csv"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_malformed_trace_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,bandwidth\n0,4.0\n1,nan\n")
        assert main(["session", "soda", "--trace-csv", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_unwritable_trace_out(self, capsys):
        assert main(["trace", "--dataset", "4g", "--duration", "30",
                     "--out", "/no/such/dir/out.csv"]) == 2
        assert "repro: error:" in capsys.readouterr().err

    def test_rollout_soak_needs_two_shards(self, capsys):
        assert main(["soak", "--rollout"]) == 2
        assert "shards >= 2" in capsys.readouterr().err

    def test_bad_intensities(self, capsys):
        assert main(["robustness", "--sessions", "1", "--duration", "30",
                     "--intensities", "abc"]) == 2
        assert "intensities" in capsys.readouterr().err

    def test_bad_argument_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["session", "soda", "--duration", "not-a-number"])
        assert excinfo.value.code == 2
