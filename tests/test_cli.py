import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_phy_defaults(self):
        args = build_parser().parse_args(["phy"])
        assert args.mcs == "QAM64-3/4"
        assert args.trials == 30

    def test_mac_flags(self):
        args = build_parser().parse_args(
            ["mac", "--stations", "12", "--background", "--protocols", "Carpool"]
        )
        assert args.stations == 12
        assert args.background
        assert args.protocols == ["Carpool"]

    def test_phy_perf_flags(self):
        args = build_parser().parse_args(["phy", "--workers", "2"])
        assert args.workers == 2
        assert build_parser().parse_args(["phy"]).workers is None

    def test_soak_flags(self):
        args = build_parser().parse_args(
            ["soak", "--epochs", "5", "--checkpoint", "ckpt", "--resume",
             "--fault-profile", "mixed", "--shards", "2", "--users", "100"])
        assert args.epochs == 5
        assert args.checkpoint == "ckpt"
        assert args.resume
        assert args.fault_profile == "mixed"
        assert args.shards == 2
        assert args.users == 100
        defaults = build_parser().parse_args(["soak"])
        assert defaults.epochs is None
        assert defaults.duration is None
        assert not defaults.resume
        assert defaults.fault_profile == "none"

    def test_soak_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["soak", "--fault-profile", "quakes"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "phy" in out and "mac" in out

    def test_energy(self, capsys):
        assert main(["energy"]) == 0
        out = capsys.readouterr().out
        assert "5.6" in out or "5.60" in out or "%" in out

    def test_testbed(self, capsys):
        assert main(["testbed"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") > 30  # 30 locations listed
        assert "QAM" in out or "BPSK" in out or "QPSK" in out

    def test_phy_small(self, capsys):
        assert main(["phy", "--trials", "2", "--payload", "300"]) == 0
        out = capsys.readouterr().out
        assert "standard" in out and "RTE" in out

    def test_mac_small(self, capsys):
        code = main(["mac", "--stations", "4", "--duration", "1",
                     "--protocols", "Carpool", "802.11"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Carpool" in out and "802.11" in out

    def test_mac_unknown_protocol(self, capsys):
        assert main(["mac", "--protocols", "Bogus"]) == 2

    def test_soak_run_and_resume(self, capsys, tmp_path):
        ckpt = str(tmp_path / "soak")
        base = ["soak", "--checkpoint", ckpt, "--aps", "2",
                "--max-stas-per-ap", "4", "--target-active-stas", "2.0",
                "--epoch-duration", "0.25", "--seed", "11"]
        assert main(base + ["--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 epoch(s) this run" in out and "goodput" in out
        assert main(base + ["--epochs", "3", "--resume", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "1 epoch(s) this run" in out and "3 total" in out

    def test_soak_refuses_overwrite_without_resume(self, capsys, tmp_path):
        ckpt = str(tmp_path / "soak")
        base = ["soak", "--checkpoint", ckpt, "--aps", "2",
                "--max-stas-per-ap", "4", "--target-active-stas", "2.0",
                "--epoch-duration", "0.25", "--epochs", "1"]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base) == 2
        assert "resume" in capsys.readouterr().err

    def test_soak_resume_without_checkpoint_fails(self, capsys, tmp_path):
        code = main(["soak", "--checkpoint", str(tmp_path / "ghost"),
                     "--epochs", "1", "--resume"])
        assert code == 2
        assert "no checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("workload_args", [
        ["--max-stas-per-ap", "8", "--epoch-duration", "0"],
        ["--max-stas-per-ap", "2"],  # default --target-active-stas 6
    ])
    def test_soak_bad_workload_exits_2(self, capsys, tmp_path,
                                       workload_args):
        code = main(["soak", "--checkpoint", str(tmp_path / "soak"),
                     "--epochs", "1", *workload_args])
        assert code == 2
        assert capsys.readouterr().err.startswith("soak: ")


class TestObsFlags:
    def test_trace_and_metrics_flags(self):
        args = build_parser().parse_args(
            ["phy", "--trace", "t.jsonl", "--trace-sample", "4", "--metrics"]
        )
        assert args.trace == "t.jsonl"
        assert args.trace_sample == 4
        assert args.metrics
        defaults = build_parser().parse_args(["phy"])
        assert defaults.trace is None and not defaults.metrics

    def test_log_level_is_global(self):
        args = build_parser().parse_args(["--log-level", "debug", "mac"])
        assert args.log_level == "debug"
        assert build_parser().parse_args(["mac"]).log_level is None

    def test_report_flags(self):
        args = build_parser().parse_args(
            ["report", "t.jsonl", "--top", "5", "--timeline", "10"]
        )
        assert args.path == "t.jsonl"
        assert args.top == 5
        assert args.timeline == 10

    def test_trace_sample_rejects_nonpositive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["phy", "--trace-sample", "0"])

    @pytest.mark.parametrize("interval", ["0", "-1"])
    def test_status_interval_rejects_nonpositive(self, interval):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["status", "d", "--interval", interval])


class TestObsCommands:
    def test_traced_run_then_report(self, capsys, tmp_path):
        import json

        trace = tmp_path / "run.jsonl"
        code = main(["phy", "--trials", "2", "--payload", "300",
                     "--trace", str(trace), "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace: {trace}" in out
        assert "--- metrics: counters ---" in out
        assert trace.exists()
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert events, "traced run produced no events"
        assert events[-1]["layer"] == "obs" and events[-1]["event"] == "metrics"
        manifest = json.loads((tmp_path / "run.jsonl.manifest.json").read_text())
        assert manifest["kind"] == "phy"
        assert manifest["n_events"] == len(events)

        code = main(["report", str(trace)])
        assert code == 0
        report = capsys.readouterr().out
        assert "Event counts by layer" in report
        assert "Top timers" in report

    def test_report_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2
        assert "trace file not found" in capsys.readouterr().err

    def test_report_malformed_trace_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["report", str(bad)]) == 2
        assert "malformed trace" in capsys.readouterr().err

    def test_report_does_not_truncate_its_input(self, capsys, tmp_path):
        # Regression: `report` must never be treated as a traced run and
        # truncate the very file it is asked to render.
        trace = tmp_path / "run.jsonl"
        trace.write_text('{"seq": 0, "layer": "mac", "event": "transmit"}\n')
        assert main(["report", str(trace)]) == 0
        assert trace.read_text().strip() != ""
        assert "1 events" in capsys.readouterr().out

    def _soak_dir(self, tmp_path, **overrides):
        from repro.serve.service import SoakConfig, run_soak
        from repro.serve.workload import SoakWorkload

        workload = SoakWorkload(seed=11, n_aps=2, max_stas_per_ap=4,
                                target_active_stas=2.0, epoch_duration=0.25,
                                channels=1)
        base = dict(workload=workload, fault_profile="none",
                    checkpoint_dir=str(tmp_path / "soak"), n_workers=1,
                    epochs=2, telemetry=True, slos=("goodput_bps<1",))
        base.update(overrides)
        run_soak(SoakConfig(**base))
        return str(tmp_path / "soak")

    def test_status_missing_dir_exits_2(self, capsys, tmp_path):
        assert main(["status", str(tmp_path / "absent")]) == 2
        assert "no checkpoint directory" in capsys.readouterr().err

    def test_status_empty_dir_exits_2(self, capsys, tmp_path):
        (tmp_path / "empty").mkdir()
        assert main(["status", str(tmp_path / "empty")]) == 2
        assert "no soak artifacts" in capsys.readouterr().err

    def test_status_healthy_run_exits_0(self, capsys, tmp_path):
        directory = self._soak_dir(tmp_path)
        assert main(["status", directory]) == 0
        out = capsys.readouterr().out
        assert "health: ok" in out
        assert "slo: goodput_bps<1" in out
        assert "Last 2 epoch(s)" in out

    def test_status_breached_run_exits_1(self, capsys, tmp_path):
        directory = self._soak_dir(tmp_path,
                                   slos=("goodput_bps>0!drain",))
        assert main(["status", directory]) == 1
        assert "BREACH goodput_bps>0!drain" in capsys.readouterr().out

    def test_report_on_soak_directory_renders_status(self, capsys, tmp_path):
        directory = self._soak_dir(tmp_path)
        assert main(["report", directory]) == 0
        assert "Soak status" in capsys.readouterr().out

    def test_status_tolerates_truncated_tail(self, capsys, tmp_path):
        # A hard kill mid-append leaves one truncated JSON line at the
        # telemetry tail; status/report must render what precedes it.
        directory = self._soak_dir(tmp_path)
        from repro.obs.telemetry import telemetry_paths

        with open(telemetry_paths(directory)["telemetry"], "a") as handle:
            handle.write('{"schema_version": 1, "epoch": 2, "de')
        assert main(["status", directory]) == 0
        assert "Last 2 epoch(s)" in capsys.readouterr().out

    def test_status_garbage_telemetry_exits_2(self, capsys, tmp_path):
        directory = self._soak_dir(tmp_path)
        from repro.obs.telemetry import telemetry_paths

        with open(telemetry_paths(directory)["telemetry"], "a") as handle:
            handle.write("not json\n")
        assert main(["status", directory]) == 2
        assert "malformed telemetry" in capsys.readouterr().err
        # report distinguishes the same two outcomes on directories.
        assert main(["report", directory]) == 2

    def test_log_level_attaches_handler(self, capsys):
        import logging

        from repro.obs.log import REPRO_LOGGER

        try:
            assert main(["--log-level", "warning", "list"]) == 0
            handlers = [h for h in REPRO_LOGGER.handlers
                        if getattr(h, "_repro_cli_handler", False)]
            assert len(handlers) == 1
            assert REPRO_LOGGER.level == logging.WARNING
        finally:
            for handler in list(REPRO_LOGGER.handlers):
                if getattr(handler, "_repro_cli_handler", False):
                    REPRO_LOGGER.removeHandler(handler)
            REPRO_LOGGER.setLevel(logging.NOTSET)
