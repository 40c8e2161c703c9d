"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_test_command_parses(self):
        args = build_parser().parse_args(
            ["test", "staircase", "--n", "500", "--k", "3", "--eps", "0.4"]
        )
        assert args.workload == "staircase"
        assert args.n == 500

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["test", "nope"])

    def test_sweep_command_parses(self):
        args = build_parser().parse_args(
            ["sweep", "n", "--values", "800,1600", "--store", "ck.sqlite",
             "--resume"]
        )
        assert args.axis == "n"
        assert args.values == "800,1600"
        assert args.store == "ck.sqlite"
        assert args.resume is True

    def test_sweep_resume_defaults_off(self):
        args = build_parser().parse_args(["sweep", "eps", "--values", "0.4,0.2"])
        assert args.resume is False
        assert args.store is None

    def test_sweep_checkpoint_option_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "n", "--values", "800", "--checkpoint", "ck.json"]
            )

    def test_kernel_option_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["test", "staircase", "--kernel", "python"])


class TestCommands:
    def test_test_accepts_histogram(self, capsys):
        rc = main(["test", "staircase", "--n", "1500", "--k", "4", "--eps", "0.3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ACCEPT" in out
        assert "samples" in out

    def test_test_rejects_far(self, capsys):
        rc = main(
            ["test", "sawtooth-uniform", "--n", "1500", "--k", "4", "--eps", "0.3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "REJECT" in out

    def test_stage_timings_prints_per_op_table(self, capsys):
        rc = main(
            ["test", "staircase", "--n", "4000", "--k", "4", "--eps", "0.3",
             "--stage-timings"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "kernel dispatches (op / calls / seconds):" in out
        assert "chi2.point_terms" in out and " calls " in out

    def test_closeness_rejects_out_of_range_eps_at_defaults(self, capsys):
        rc = main(["closeness", "shifted-staircase"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "error: cannot build workload shifted-staircase at n=10000, k=8, eps=0.25: "
            "epsilon=0.25 too large"
        )

    def test_budget(self, capsys):
        rc = main(["budget", "--n", "100000", "--k", "8", "--eps", "0.1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ILR12" in out and "CDGR16" in out

    def test_select(self, capsys):
        rc = main(
            ["select", "uniform", "--n", "1000", "--eps", "0.4", "--k-max", "8",
             "--repeats", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "selected k : 1" in out

    SWEEP_ARGV = [
        "sweep", "n", "--values", "800,1600", "--k", "3", "--eps", "0.35",
        "--trials", "3", "--bisection-steps", "2", "--seed", "3",
    ]

    def test_sweep_writes_checkpoint(self, capsys, tmp_path):
        path = tmp_path / "ck.sqlite"
        argv = self.SWEEP_ARGV + ["--store", str(path), "--worker-procs", "1"]
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 0
        assert "fitted exponent" in out and "samples/trial" in out
        assert path.exists()
        # Resuming a finished sweep recomputes nothing and prints the same table.
        rc = main(argv + ["--resume"])
        assert rc == 0
        assert capsys.readouterr().out == out

    def test_sweep_in_process_store_honours_workers(self, capsys, tmp_path, monkeypatch):
        import repro.cli as cli

        seen = {}
        real = cli.complexity_sweep

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "complexity_sweep", spy)
        path = tmp_path / "ck.sqlite"
        rc = main(
            self.SWEEP_ARGV
            + ["--store", str(path), "--worker-procs", "1", "--workers", "2"]
        )
        assert rc == 0
        assert seen["workers"] == 2
        assert seen["checkpoint"] == str(path)
        assert "fitted exponent" in capsys.readouterr().out

    def test_sweep_fleet_rejects_workers(self, tmp_path):
        path = tmp_path / "ck.sqlite"
        with pytest.raises(SystemExit) as exc:
            main(
                self.SWEEP_ARGV
                + ["--store", str(path), "--worker-procs", "2", "--workers", "2"]
            )
        message = str(exc.value.code)
        assert "--worker-procs 1" in message and "\n" not in message
        assert not path.exists()


class TestTraceCli:
    def _run_traced(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        rc = main(
            ["test", "staircase", "--n", "1500", "--k", "4", "--eps", "0.3",
             "--trace", str(path)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        return path, out

    def test_test_writes_trace_file(self, tmp_path, capsys):
        path, out = self._run_traced(tmp_path, capsys)
        assert path.exists()
        assert "trace     :" in out

    def test_trace_validate(self, tmp_path, capsys):
        path, _ = self._run_traced(tmp_path, capsys)
        rc = main(["trace", "validate", str(path)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_trace_summarize(self, tmp_path, capsys):
        path, _ = self._run_traced(tmp_path, capsys)
        rc = main(["trace", "summarize", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        # The per-stage table renders one row per span path, plus the ledger.
        for row in ("test/partition", "test/learn", "test/sieve", "test/chi2"):
            assert row in out
        assert "ledger events" in out and "reconciled" in out

    def test_sweep_trace_flag(self, tmp_path, capsys):
        path = tmp_path / "sweep_trace.jsonl"
        rc = main(
            ["sweep", "n", "--values", "800", "--k", "3", "--eps", "0.35",
             "--trials", "3", "--bisection-steps", "1", "--seed", "3",
             "--trace", str(path)]
        )
        assert rc == 0
        assert path.exists()
        rc = main(["trace", "validate", str(path)])
        assert rc == 0
        capsys.readouterr()

    def test_serve_trace_dir_matches_exported_events(self, tmp_path, capsys, monkeypatch):
        # The service retains TraceEvent tuples; the files must be byte-for-
        # byte what writing the exported dicts of the same events produces.
        import repro.serve
        from repro.observability.trace import write_jsonl

        services = []

        class RecordingService(repro.serve.TesterService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                services.append(self)

        monkeypatch.setattr(repro.serve, "TesterService", RecordingService)
        trace_dir = tmp_path / "traces"
        rc = main(
            ["serve", "--sessions", "6", "--n", "4000", "--k", "4", "--eps", "0.3",
             "--chaos", "--seed", "5", "--trace-dir", str(trace_dir)]
        )
        capsys.readouterr()
        assert rc == 0
        (service,) = services
        assert len(service.session_traces) == 6
        for request_id, events in service.session_traces.items():
            assert events
            expected = tmp_path / f"{request_id}.expected.jsonl"
            write_jsonl(expected, [e.to_json() for e in events])
            written = trace_dir / f"{request_id}.jsonl"
            assert written.read_bytes() == expected.read_bytes()


class TestStageTable:
    def test_stage_table_uses_key_union(self, capsys):
        """Stages present in only one audit dict must still be printed."""
        from repro.cli import _print_stage_table
        from repro.core.tester import Verdict

        verdict = Verdict(
            accept=True, stage="chi2", reason="", samples_used=10, k=2, eps=0.3,
            stage_samples={"partition": 10, "mystery": 0},
            stage_timings={"check": 0.5},
        )
        _print_stage_table(verdict)
        out = capsys.readouterr().out
        assert "partition" in out
        assert "check" in out  # timing-only stage no longer dropped
        assert "mystery" in out  # unknown stages appended after STAGE_ORDER
        lines = [line.split(":")[0].strip() for line in out.splitlines()]
        assert lines.index("partition") < lines.index("check") < lines.index("mystery")
