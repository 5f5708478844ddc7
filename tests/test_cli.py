"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("list", "fit", "predict", "simulate", "fig2", "fig5",
                    "fig9", "fig10", "ablation"):
            args = parser.parse_args(
                [cmd] + (["gl-30m"] if cmd in ("fit", "simulate") else
                         ["d", "gl-30m"] if cmd == "predict" else [])
            )
            assert args.command == cmd

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "fb-10m", "--guarded", "--adaptive",
             "--repair", "interpolate", "--refit-every", "2"]
        )
        assert args.guarded and args.adaptive
        assert args.repair == "interpolate"
        assert args.refit_every == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "fb-10m", "--repair", "drop"])

    def test_simulate_monitor_options(self):
        args = build_parser().parse_args(
            ["simulate", "fb-10m", "--monitor", "--slo-latency-ms", "5",
             "--slo-mape", "25", "--metrics-out", "snap.json"]
        )
        assert args.monitor
        assert args.slo_latency_ms == 5.0
        assert args.slo_mape == 25.0
        assert args.metrics_out == "snap.json"

    def test_metrics_command_registered(self):
        args = build_parser().parse_args(
            ["metrics", "snap.json", "--format", "json", "--prefix", "monitor."]
        )
        assert args.command == "metrics"
        assert args.snapshot == "snap.json"
        assert args.format == "json"
        assert args.prefix == "monitor."
        assert build_parser().parse_args(["metrics", "x"]).format == "prometheus"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics", "x", "--format", "xml"])

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig9_options(self):
        args = build_parser().parse_args(
            ["fig9", "--configs", "gl-30m", "fb-10m", "--max-iters", "3",
             "--no-brute-force", "--table4"]
        )
        assert args.configs == ["gl-30m", "fb-10m"]
        assert args.max_iters == 3
        assert args.no_brute_force and args.table4


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gl-30m" in out
        assert "cloudinsight" in out

    def test_fit_and_predict_roundtrip(self, capsys, tmp_path):
        save_dir = str(tmp_path / "model")
        rc = main([
            "fit", "fb-10m", "--budget", "tiny",
            "--max-iters", "3", "--epochs", "5", "--save", save_dir,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "validation MAPE" in out and "saved predictor" in out

        rc = main(["predict", save_dir, "fb-10m"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted next JAR" in out

    def test_simulate_guarded(self, capsys):
        rc = main([
            "simulate", "fb-10m", "--budget", "tiny",
            "--max-iters", "2", "--epochs", "3", "--guarded",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean turnaround" in out
        assert "serving.predictions" in out

    def test_simulate_guarded_survives_corrupt_model(self, capsys, tmp_path):
        save_dir = str(tmp_path / "model")
        rc = main([
            "fit", "fb-10m", "--budget", "tiny",
            "--max-iters", "2", "--epochs", "3", "--save", save_dir,
        ])
        assert rc == 0
        manifest = tmp_path / "model" / "predictor.json"
        manifest.write_text(manifest.read_text()[:30])
        capsys.readouterr()
        rc = main(["simulate", "fb-10m", "--guarded", "--model-dir", save_dir])
        assert rc == 0
        out = capsys.readouterr().out
        assert "guarded[none]" in out  # degraded to the fallback chain

    @pytest.mark.parametrize("corrupt", [
        lambda text: "{not json",
        lambda text: text.replace('"next_offset"', '"next_offset_gone"'),
    ], ids=["not-json", "missing-cursor-key"])
    def test_stream_resume_corrupt_checkpoint_errors(
        self, capsys, tmp_path, corrupt
    ):
        ckpt = tmp_path / "ck"
        args = ["stream", "fb-10m", "--checkpoint-dir", str(ckpt)]
        assert main(args) == 0
        path = ckpt / "checkpoint.json"
        path.write_text(corrupt(path.read_text()))
        capsys.readouterr()
        assert main(args + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "checkpoint" in err

    @pytest.mark.parametrize("argv, flag", [
        (["stream", "gl-30m", "--slo-mape", "-5"], "--slo-mape"),
        (["simulate", "gl-30m", "--slo-mape", "-5"], "--slo-mape"),
        (["simulate", "gl-30m", "--slo-latency-ms", "0"], "--slo-latency-ms"),
        (["stream", "gl-30m", "--refit-every", "0"], "--refit-every"),
        (["simulate", "gl-30m", "--refit-every", "0"], "--refit-every"),
        (["stream", "gl-30m", "--deadline-s", "nan"], "--deadline-s"),
        (["stream", "gl-30m", "--service-time", "nan"], "--service-time"),
        (["stream", "gl-30m", "--deadline-s", "0"], "--deadline-s"),
        (["stream", "gl-30m", "--queue-capacity", "0"], "--queue-capacity"),
        (["stream", "gl-30m", "--chunk-size", "0"], "--chunk-size"),
    ], ids=["stream-slo-mape", "simulate-slo-mape", "simulate-slo-latency",
            "stream-refit-every", "simulate-refit-every",
            "stream-deadline-nan", "stream-service-time-nan",
            "stream-deadline-zero", "stream-queue-capacity-zero",
            "stream-chunk-size-zero"])
    def test_bad_serving_flag_is_one_error_line(
        self, capsys, monkeypatch, argv, flag
    ):
        from repro import cli
        from repro.core import LoadDynamics

        def no_fit(*args, **kwargs):
            raise AssertionError("a bad flag must be refused before any fit")

        def no_load(*args, **kwargs):
            raise AssertionError("a bad flag must be refused before any load")

        monkeypatch.setattr(LoadDynamics, "fit", no_fit)
        monkeypatch.setattr(cli, "_load_series", no_load)
        assert main(argv) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and flag in errors[0], err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_target_channel_of_univariate_trace_is_one_error_line(
        self, capsys, command
    ):
        assert main([command, "fb-10m", "--target-channel", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --target-channel must be 0"), err
        assert "Traceback" not in err

    def test_simulate_conflicting_flags(self, capsys, tmp_path):
        rc = main(["simulate", "fb-10m", "--adaptive", "--model-dir", "x"])
        assert rc == 2

    def test_simulate_monitored_and_metrics_render(self, capsys, tmp_path):
        snap = str(tmp_path / "snap.json")
        rc = main([
            "simulate", "fb-10m", "--budget", "tiny",
            "--max-iters", "2", "--epochs", "3",
            "--slo-mape", "60", "--metrics-out", snap,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rolling MAPE" in out
        assert "drift [cusum" in out
        assert "SLO [accuracy" in out
        assert "health" in out
        assert snap in out

        rc = main(["metrics", snap])
        assert rc == 0
        prom = capsys.readouterr().out
        assert "# TYPE monitor_intervals counter" in prom
        assert "monitor_latency_ms_count" in prom

        rc = main(["metrics", snap, "--format", "json", "--prefix", "monitor."])
        assert rc == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        metrics = payload["metrics"]
        assert metrics and all(k.startswith("monitor.") for k in metrics)

    def test_metrics_bad_snapshot_errors(self, capsys, tmp_path):
        assert main(["metrics", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"no_metrics": true}')
        assert main(["metrics", str(bad)]) == 2

    def test_fit_extended_space(self, capsys, tmp_path):
        rc = main([
            "fit", "fb-10m", "--budget", "tiny",
            "--max-iters", "3", "--epochs", "5", "--extended",
        ])
        assert rc == 0
        assert "selected" in capsys.readouterr().out


class TestAutoscale:
    def test_parser_options(self):
        args = build_parser().parse_args(
            ["autoscale", "--quick", "--scenarios", "steady", "flash_crowd",
             "--policies", "hybrid", "--seed", "3", "--json-out", "m.json"]
        )
        assert args.command == "autoscale"
        assert args.scenarios == ["steady", "flash_crowd"]
        assert args.policies == ["hybrid"]
        assert args.quick and args.seed == 3 and args.json_out == "m.json"

    def test_unknown_names_error(self, capsys):
        assert main(["autoscale", "--scenarios", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
        assert main(["autoscale", "--policies", "oracle"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_quick_single_cell_runs(self, capsys, tmp_path):
        out_json = tmp_path / "matrix.json"
        rc = main([
            "autoscale", "--quick", "--scenarios", "steady",
            "--policies", "reactive", "hybrid", "--json-out", str(out_json),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "steady" in out and "reactive" in out and "hybrid" in out
        import json

        payload = json.loads(out_json.read_text())
        cell = payload["scenarios"]["steady"]["policies"]
        assert set(cell) == {"reactive", "hybrid"}
        assert cell["hybrid"]["controller"]["n_decisions"] > 0
