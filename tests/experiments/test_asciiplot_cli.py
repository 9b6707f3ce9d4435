"""Tests for the ASCII figure renderer and the CLI."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments.asciiplot import MARKERS, render_series


class TestRenderSeries:
    def test_single_series_renders(self):
        xs = np.linspace(0, 10, 50)
        out = render_series({"line": (xs, xs)}, width=40, height=8, title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert "*" in out
        assert "*=line" in out

    def test_monotone_series_has_monotone_shape(self):
        """An increasing series' marker column rises left to right."""
        xs = np.linspace(0, 1, 30)
        out = render_series({"up": (xs, xs)}, width=30, height=10)
        rows = [l.split("|", 1)[1] for l in out.splitlines() if "|" in l]
        first_marks = [row.find("*") for row in rows if "*" in row]
        # Top rows (rendered first) hold the rightmost points.
        assert first_marks == sorted(first_marks, reverse=True)

    def test_multiple_series_distinct_markers(self):
        xs = np.arange(10)
        out = render_series({"a": (xs, xs), "b": (xs, xs[::-1])}, width=20, height=6)
        assert MARKERS[0] in out and MARKERS[1] in out

    def test_axis_labels_present(self):
        xs = np.linspace(2.0, 7.0, 5)
        ys = np.linspace(10.0, 30.0, 5)
        out = render_series({"s": (xs, ys)}, width=20, height=5)
        assert "30" in out and "10" in out
        assert "2" in out and "7" in out

    def test_fixed_y_range(self):
        xs = np.arange(4)
        out = render_series({"s": (xs, xs * 0.1)}, y_min=0.0, y_max=1.0, width=20, height=5)
        assert "1" in out.splitlines()[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            render_series({})
        with pytest.raises(ValueError):
            render_series({"s": (np.arange(3), np.arange(4))})
        with pytest.raises(ValueError):
            render_series({"s": (np.arange(3), np.arange(3))}, width=4)

    def test_constant_series_does_not_crash(self):
        xs = np.arange(5)
        out = render_series({"flat": (xs, np.ones(5))}, width=20, height=5)
        assert "*" in out


class TestCli:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        for command in (
            "workload",
            "calibrate",
            "estimate",
            "power-study",
            "trace",
            "metrics",
        ):
            args = parser.parse_args(
                [command] if command == "calibrate" else [command, "--subframes", "400"]
            )
            assert args.command == command

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_top_replays_a_trace_once(self, capsys, tmp_path):
        """``repro top --from``: the replay path renders one final frame
        from a trace ``repro trace`` wrote."""
        path = tmp_path / "trace.jsonl"
        assert main(["trace", "--subframes", "5", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["top", "--from", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "slo miss-rate" in out
        assert out.count("\x1b[2J") == 0  # --once never clears the screen
        lines = path.read_text().splitlines()
        assert out.rstrip().endswith(f"{len(lines)} events replayed")

    def test_top_renders_live_frames(self, capsys):
        """Without ``--once``, ``repro top`` re-renders on the event stream
        at most every ``--interval`` and once more at the end."""
        assert main(["top", "--subframes", "5", "--interval", "0.05"]) == 0
        out = capsys.readouterr().out
        frames = out.count("\x1b[H\x1b[2J")
        assert frames >= 2
        assert out.count("slo miss-rate") == frames

    def test_workload_runs(self, capsys):
        assert main(["workload", "--subframes", "800"]) == 0
        assert "users per subframe" in capsys.readouterr().out

    def test_estimate_runs(self, capsys):
        assert main(["estimate", "--subframes", "400"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 12" in out
        assert "measured" in out

    def test_trace_writes_valid_jsonl(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.jsonl"
        assert main(
            [
                "trace",
                "--policy",
                "nap+idle",
                "--subframes",
                "40",
                "--out",
                str(out_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "events written" in out
        assert "0 violation(s)" in out
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert rows, "trace must contain events"
        kinds = {row["kind"] for row in rows}
        assert {"dispatch", "governor", "task-start", "task-finish"} <= kinds
        assert all("t" in row and "core" in row for row in rows)

    def test_trace_ring_buffer_caps_output(self, capsys, tmp_path):
        out_path = tmp_path / "ring.jsonl"
        assert main(
            ["trace", "--subframes", "30", "--ring", "100", "--out", str(out_path)]
        ) == 0
        assert len(out_path.read_text().splitlines()) == 100
        assert "dropped by ring buffer" in capsys.readouterr().out

    def test_trace_from_a_missing_file_exits_two(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.jsonl")
        out_path = tmp_path / "trace.json"
        argv = ["trace", "--from", missing, "--format", "chrome"]
        assert main(argv + ["--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("trace: cannot read") and missing in err
        assert "Traceback" not in err and not out_path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--subframes", "0"],
            ["run", "--subframes", "-3", "--verify"],
            ["trace", "--ring", "0", "--subframes", "5"],
            ["trace", "--workers", "0", "--subframes", "5"],
            ["metrics", "--workers", "0", "--subframes", "5"],
            ["top", "--workers", "0", "--subframes", "5", "--once"],
            ["top", "--from", "/no/such/trace.jsonl"],
            ["run", "--timeout", "0", "--subframes", "1"],
            ["serve", "--timeout", "0"],
            ["chaos", "--timeout", "-1"],
        ],
        ids=[
            "run-subframes-0",
            "run-subframes-negative-verify",
            "trace-ring-0",
            "trace-workers-0",
            "metrics-workers-0",
            "top-workers-0",
            "top-from-missing-file",
            "run-timeout-0",
            "serve-timeout-0",
            "chaos-timeout-negative",
        ],
    )
    def test_a_bad_value_exits_two(self, capsys, tmp_path, argv):
        # Rejected before anything runs: one ``<command>:`` line, nothing
        # on stdout and nothing written.
        out_path = tmp_path / "trace.jsonl"
        if argv[0] == "trace":
            argv = [*argv, "--out", str(out_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"{argv[0]}: ")
        assert not list(tmp_path.iterdir())

    def test_a_value_error_during_a_run_propagates(self, monkeypatch):
        # Only set-up errors are bad option values; a run's own is a bug.
        from repro.sim.machine import MachineSimulator

        def fail(self, *args, **kwargs):
            raise ValueError("raised mid-run")

        monkeypatch.setattr(MachineSimulator, "run", fail)
        with pytest.raises(ValueError, match="mid-run"):
            main(["metrics", "--subframes", "5"])

    def test_a_failed_trace_run_flushes_a_partial_trace(
        self, capsys, monkeypatch, tmp_path
    ):
        # The safety flush runs, then the failure propagates unchanged.
        from repro.sim.machine import MachineSimulator

        def fail(self, *args, **kwargs):
            raise RuntimeError("raised mid-run")

        monkeypatch.setattr(MachineSimulator, "run", fail)
        out_path = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError, match="mid-run"):
            main(["trace", "--subframes", "5", "--out", str(out_path)])
        err = capsys.readouterr().err
        assert err.startswith("run failed (RuntimeError); 0 events flushed to")
        assert (tmp_path / "trace.jsonl.partial.jsonl").exists()
        assert not out_path.exists()

    def test_trace_from_without_chrome_format_exits_two(self, capsys, tmp_path):
        # The format is checked before the file is read: a missing file
        # reports the format, not the read error, and nothing is written.
        missing = str(tmp_path / "missing.jsonl")
        out_path = tmp_path / "trace.json"
        assert main(["trace", "--from", missing, "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("trace: --from requires --format chrome")
        assert len(captured.err.splitlines()) == 1 and not out_path.exists()

    def test_metrics_prints_summary(self, capsys):
        assert main(["metrics", "--policy", "idle", "--subframes", "30"]) == 0
        out = capsys.readouterr().out
        assert "Scheduler metrics" in out
        assert "tasks" in out and "steals" in out
        assert "subframe_latency" in out
        assert "per-core utilization" in out

    def test_metrics_json_output(self, capsys):
        import json

        assert main(["metrics", "--subframes", "20", "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["subframes"] == 20
        assert snapshot["sketches"]["subframe_latency"]["count"] == 20
        # The old alias is gone: one way to ask for JSON.
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "--subframes", "20", "--json"])
        assert excinfo.value.code == 2
