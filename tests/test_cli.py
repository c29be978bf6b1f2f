"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.streams.base import stream_from_values
from repro.streams.replay import save_stream_csv


class TestParser:
    def test_experiment_commands_exist(self):
        parser = build_parser()
        for name in ("example1", "example2", "example3", "table1"):
            args = parser.parse_args([name])
            assert args.command == name

    def test_compare_requires_a_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare"])

    def test_compare_dataset_and_csv_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compare", "--dataset", "power-load", "--csv", "x.csv"]
            )

    def test_compare_defaults(self):
        args = build_parser().parse_args(
            ["compare", "--dataset", "moving-object"]
        )
        assert args.delta == 3.0
        assert args.model == "all"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCompareCommand:
    def test_builtin_dataset(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "moving-object",
                "--delta",
                "3",
                "--limit",
                "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "caching" in out
        assert "dkf-linear" in out
        # 2-D stream: sinusoidal is skipped automatically under "all".
        assert "dkf-sinusoidal" not in out

    def test_scalar_dataset_includes_sinusoidal(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "power-load",
                "--delta",
                "50",
                "--limit",
                "400",
            ]
        )
        assert code == 0
        assert "dkf-sinusoidal" in capsys.readouterr().out

    def test_csv_trace(self, tmp_path, capsys):
        stream = stream_from_values(
            np.arange(100, dtype=float) * 2.0, name="ramp"
        )
        path = tmp_path / "trace.csv"
        save_stream_csv(stream, path)
        code = main(
            ["compare", "--csv", str(path), "--model", "linear", "--delta", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dkf-linear" in out

    def test_single_model_selection(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "http-traffic",
                "--model",
                "constant",
                "--limit",
                "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dkf-constant" in out
        assert "dkf-linear" not in out

    def test_smoothing_flag(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "http-traffic",
                "--model",
                "linear",
                "--smoothing-f",
                "1e-7",
                "--delta",
                "10",
                "--limit",
                "300",
            ]
        )
        assert code == 0

    def test_inapplicable_model_fails_cleanly(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "moving-object",
                "--model",
                "sinusoidal",
                "--limit",
                "100",
            ]
        )
        assert code == 1
        assert "not applicable" in capsys.readouterr().err

    def test_missing_csv_fails_cleanly(self, capsys):
        code = main(["compare", "--csv", "/nonexistent/trace.csv"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestObsCommand:
    def test_record_then_replay(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        events = tmp_path / "run.jsonl"
        code = main(
            [
                "obs",
                "--record",
                str(snap),
                "--events",
                str(events),
                "--ticks",
                "120",
            ]
        )
        assert code == 0
        assert snap.exists() and events.exists()
        capsys.readouterr()
        code = main(["obs", str(snap)])
        assert code == 0
        out = capsys.readouterr().out
        assert "obs-demo" in out
        assert "-- counters --" in out
        assert "-- spans (by total wall-clock) --" in out

    def test_check_mode(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        assert main(["obs", "--record", str(snap), "--ticks", "80"]) == 0
        capsys.readouterr()
        assert main(["obs", str(snap), "--check"]) == 0
        assert "snapshot ok" in capsys.readouterr().out

    def test_invalid_snapshot_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "wrong"}')
        code = main(["obs", str(bad), "--check"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_arguments_fail_cleanly(self, capsys):
        code = main(["obs"])
        assert code == 1
        assert "need a snapshot path" in capsys.readouterr().err


class TestModuleEntrypoints:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "compare",
                "--dataset",
                "moving-object",
                "--model",
                "constant",
                "--limit",
                "100",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert "dkf-constant" in result.stdout

    def test_export_main_prints_files(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import export

        original = export.export_all
        monkeypatch.setattr(
            export,
            "export_all",
            lambda out_dir: original(
                out_dir,
                sizes={
                    "moving-object": 150,
                    "power-load": 150,
                    "http-traffic": 150,
                },
            ),
        )
        code = export.main([str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig04_updates.csv" in out


class TestExperimentCommands:
    def test_table1_runs(self, capsys, monkeypatch):
        # Shrink the matrix for test speed.
        from repro.experiments import table1 as t1

        original = t1.matrix
        monkeypatch.setattr(
            t1,
            "matrix",
            lambda sizes=None: original(
                sizes={
                    "moving-object": 200,
                    "power-load": 200,
                    "http-traffic": 200,
                }
            ),
        )
        code = main(["table1"])
        assert code == 0
        assert "caching" in capsys.readouterr().out


class TestChaosCommand:
    def test_chaos_defaults_parse(self):
        args = build_parser().parse_args(["chaos"])
        assert args.ticks == 400
        assert args.crash_at == 225
        assert args.checkpoint_every == 50

    def test_chaos_drill_recovers_and_writes_artifacts(
        self, tmp_path, capsys
    ):
        import json

        out = tmp_path / "chaos"
        code = main(
            [
                "chaos",
                "--ticks", "160",
                "--crash-at", "70",
                "--recover-after", "5",
                "--checkpoint-every", "30",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "recovered within" in printed
        report = json.loads((out / "report.json").read_text())
        assert report["recovery"]["restored_sources"] >= 1
        assert report["recovered_within_ticks"] is not None
        assert (out / "snapshot.json").exists()
        assert (out / "checkpoint" / "checkpoint.ckpt").exists()
        assert (out / "checkpoint" / "wal.jsonl").exists()

    def test_chaos_rejects_bad_crash_timing(self, tmp_path, capsys):
        code = main(
            [
                "chaos",
                "--ticks", "50",
                "--crash-at", "60",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code != 0
        assert "crash-at" in capsys.readouterr().err


class TestDrillFlagRefusals:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["chaos", "--federation", "--surge"], "--surge"),
            (["chaos", "--batch", "--federation"], "--federation"),
            (["chaos", "--surge", "--peers", "9"], "--peers"),
            (["chaos", "--federation", "--crash-at", "5"], "--crash-at"),
            (["chaos", "--batch", "--load-factor", "2"], "--load-factor"),
            (["wire", "--soak", "--demo"], "--demo"),
            (["wire", "--soak", "--chaos-report", "x.json"], "--chaos-report"),
        ],
    )
    def test_flag_of_another_drill_exits_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestSloCommand:
    def test_demo_prints_report(self, capsys):
        code = main(["slo", "--demo", "--ticks", "150"])
        assert code == 0
        out = capsys.readouterr().out
        assert "=== SLO report ===" in out
        assert "delivery-ratio" in out
        assert "=== health watchers ===" in out

    def test_replay_from_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        assert main(["obs", "--record", str(snap), "--ticks", "120"]) == 0
        capsys.readouterr()
        code = main(["slo", str(snap)])
        assert code == 0
        assert "staleness-p99" in capsys.readouterr().out

    def test_strict_fails_when_an_alert_fired(self, capsys):
        # The burst-loss demo reliably trips the delivery-ratio alert.
        code = main(["slo", "--demo", "--ticks", "300", "--strict"])
        assert code == 1
        assert "at least one alert fired" in capsys.readouterr().err

    def test_missing_arguments_fail_cleanly(self, capsys):
        code = main(["slo"])
        assert code == 1
        assert "need a snapshot path" in capsys.readouterr().err


class TestTraceView:
    def test_trace_tree_from_recorded_events(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        events = tmp_path / "run.jsonl"
        assert (
            main(
                [
                    "obs", "--record", str(snap),
                    "--events", str(events), "--ticks", "100",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["obs", "--events", str(events), "--trace", "all"]) == 0
        listing = capsys.readouterr().out
        first = listing.strip().splitlines()[0]
        assert "/" in first
        assert main(["obs", "--events", str(events), "--trace", first]) == 0
        tree = capsys.readouterr().out
        assert f"trace {first}" in tree
        assert "source.update" in tree

    def test_trace_without_events_fails_cleanly(self, capsys):
        code = main(["obs", "--trace", "s0/1"])
        assert code == 1
        assert "--events" in capsys.readouterr().err


class TestBenchdiffCommand:
    def write_bench(self, path, us_per_reading, speedup=10.0):
        import json

        from repro.obs import MetricsRegistry, build_snapshot

        reg = MetricsRegistry()
        reg.gauge(
            "engine_us_per_reading", {"sources": "64"}
        ).set(us_per_reading)
        reg.gauge("batch_speedup_x", {"sources": "64"}).set(speedup)
        path.write_text(json.dumps(build_snapshot(reg, meta={})))

    def test_within_budget_passes(self, tmp_path, capsys):
        base, fresh = tmp_path / "base.json", tmp_path / "fresh.json"
        self.write_bench(base, 100.0)
        self.write_bench(fresh, 110.0)
        code = main(["benchdiff", str(base), str(fresh)])
        assert code == 0
        assert "ok:" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, capsys):
        base, fresh = tmp_path / "base.json", tmp_path / "fresh.json"
        self.write_bench(base, 100.0)
        self.write_bench(fresh, 160.0)
        code = main(["benchdiff", str(base), str(fresh)])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAIL" in err and "engine_us_per_reading" in err

    def test_higher_is_better_direction(self, tmp_path, capsys):
        base, fresh = tmp_path / "base.json", tmp_path / "fresh.json"
        self.write_bench(base, 100.0, speedup=10.0)
        self.write_bench(fresh, 100.0, speedup=5.0)  # speedup halved
        code = main(["benchdiff", str(base), str(fresh)])
        assert code == 1
        assert "batch_speedup_x" in capsys.readouterr().err

    def test_no_shared_gauges_fails_cleanly(self, tmp_path, capsys):
        import json

        from repro.obs import MetricsRegistry, build_snapshot

        base, fresh = tmp_path / "base.json", tmp_path / "fresh.json"
        self.write_bench(base, 100.0)
        fresh.write_text(
            json.dumps(build_snapshot(MetricsRegistry(), meta={}))
        )
        code = main(["benchdiff", str(base), str(fresh)])
        assert code == 1
        assert "share no throughput gauges" in capsys.readouterr().err

    def test_committed_baselines_self_compare(self, capsys):
        from pathlib import Path

        baseline = str(
            Path(__file__).resolve().parents[1] / "BENCH_engine_scale.json"
        )
        code = main(["benchdiff", baseline, baseline])
        assert code == 0
        assert "within 25%" in capsys.readouterr().out
