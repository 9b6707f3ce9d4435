"""CLI tests for ``repro serve``: exit codes, --json schema, --faults."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import _config_from_flags, build_parser, main
from repro.serve import ServeConfig, validate_serve_report

SRC = Path(__file__).resolve().parents[2] / "src"

BASE = [
    "serve",
    "--cells",
    "2",
    "--subframes",
    "20",
    "--no-pace",
    "--backend",
    "vectorized",
    "--arrival",
    "poisson",
    "--rate",
    "2.0",
    "--seed",
    "5",
]


class TestParser:
    def test_serve_command_registered(self):
        parser = build_parser()
        args = parser.parse_args(BASE)
        assert args.cells == 2
        assert args.no_pace is True
        assert args.backend == "vectorized"

    def test_defaults_match_serve_config(self):
        args = build_parser().parse_args(["serve"])
        assert args.cells == 4
        assert args.subframes == 200
        assert args.arrival == "constant"
        assert args.backpressure == "shed"
        assert args.json is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--arrival", "bogus"],
            ["serve", "--backend", "quantum"],
            ["serve", "--backpressure", "yolo"],
            ["serve", "--mix", "exotic"],
        ],
    )
    def test_bad_choices_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


FLAG_FIELDS = [f for f in dataclasses.fields(ServeConfig) if "flag" in f.metadata]


def _config(argv):
    """What ``repro serve <argv>`` would run (the CLI never keeps results)."""
    args = build_parser().parse_args(["serve", *argv])
    return _config_from_flags(ServeConfig, args, keep_results=False)


def _another_value(field):
    """A valid value for the field's flag that is not its default."""
    choices = field.metadata["parser"].get("choices")
    if choices:
        return next(c for c in choices if c != field.default)
    if field.default is None:
        return 1.5 if field.metadata["parser"].get("type") is float else "some/file"
    return type(field.default)(field.default + 1)


class TestOptionsAreDeclaredOnce:
    """``ServeConfig`` is the flag table: the parser and the config the CLI
    builds both come from its field metadata, so neither can drift."""

    def test_every_option_but_the_three_hooks_has_a_flag(self):
        names = [f.name for f in dataclasses.fields(ServeConfig)]
        assert len(names) == 30
        assert set(names) - {f.name for f in FLAG_FIELDS} == {
            "keep_results", "processor",
        }
        flags = [f.metadata["flag"] for f in FLAG_FIELDS]
        assert len(set(flags)) == len(flags) == 28

    def test_no_flags_yield_the_dataclass_defaults(self):
        assert _config([]) == ServeConfig(keep_results=False)

    @pytest.mark.parametrize("field", FLAG_FIELDS, ids=lambda f: f.metadata["flag"])
    def test_a_flag_alone_changes_exactly_its_field(self, field):
        flag = field.metadata["flag"]
        if isinstance(field.default, bool):
            argv, expected = [flag], not field.default
        else:
            expected = _another_value(field)
            argv = [flag, str(expected)]
        defaults, got = _config([]), _config(argv)
        changed = {
            f.name: getattr(got, f.name)
            for f in dataclasses.fields(ServeConfig)
            if getattr(got, f.name) != getattr(defaults, f.name)
        }
        assert changed == {field.name: expected}

    def test_spellings_that_differ_from_their_field(self):
        config = _config(["--users", "7", "--delta", "0.01", "--no-pace"])
        assert (config.max_users, config.delta_s, config.pace) == (7, 0.01, False)

    def test_the_keywords_perf_passes_are_still_fields(self):
        """``perf/workloads.py`` and ``perf/layers.py`` build the config by
        keyword and may not be edited: these names are frozen."""
        ServeConfig(
            cells=2, subframes=200, delta_s=0.005, arrival="poisson", rate=2.0,
            mix="mmtc", max_users=10, backend="vectorized", keep_results=False,
            seed=1, pace=False, backpressure="block", queue_depth=8,
            trace_path=None, processor=None,
        ).validate()

    def test_the_five_never_set_knobs_are_not_options(self):
        removed = {
            "cell_seed_stride", "overload_window", "faults_deadline_s",
            "drain_timeout_s", "adaptive_config",
        }
        assert not removed & {f.name for f in dataclasses.fields(ServeConfig)}


class TestBadPathsExitTwo:
    """A path that cannot be read or written is a configuration error:
    one ``serve:`` line and exit 2, not a traceback."""

    def test_resume_from_a_missing_checkpoint(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.ckpt")
        assert main(BASE + ["--resume", missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: cannot read checkpoint") and missing in err
        assert "Traceback" not in err

    def test_trace_into_a_missing_directory(self, tmp_path, capsys):
        path = str(tmp_path / "no" / "such" / "dir" / "x.jsonl")
        assert main(BASE + ["--trace", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: cannot write trace") and path in err
        assert "Traceback" not in err

    def test_a_bad_resume_leaves_no_trace_file_behind(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        argv = BASE + ["--resume", str(tmp_path / "missing"), "--trace", str(trace)]
        assert main(argv) == 2
        capsys.readouterr()
        assert not trace.exists()


class TestServeCommand:
    def test_text_mode_reports_ledger_ok(self, capsys):
        assert main(BASE) == 0
        out = capsys.readouterr().out
        assert "served 2 cells x 20 subframes" in out
        assert "ledger OK" in out
        assert "/hour" in out

    def test_json_mode_emits_valid_report(self, capsys):
        assert main(BASE + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro-serve/2"
        assert validate_serve_report(report) == []
        assert report["config"]["cells"] == 2
        assert report["config"]["pace"] is False
        assert report["slo"]["schema"] == "repro-slo/1"

    def test_json_mode_is_seed_deterministic(self, capsys):
        # Block (don't shed) at full queue: under "shed" the ok/shed split
        # depends on decode wall-clock, so only blocking runs repeat exactly.
        argv = BASE + ["--json", "--backpressure", "block"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        # Wall-clock fields differ run to run; the workload must not.
        for key in ("dispatched", "offered_users", "terminal_counts", "config"):
            assert first[key] == second[key]

    def test_faults_variant_survives_with_shedding(self, capsys):
        assert main(BASE + ["--faults"]) == 0
        out = capsys.readouterr().out
        assert "chaos: shedding engaged" in out

    def test_trace_flag_writes_tailable_jsonl(self, tmp_path, capsys):
        path = tmp_path / "serve-trace.jsonl"
        assert main(BASE + ["--trace", str(path)]) == 0
        capsys.readouterr()
        kinds = {
            json.loads(line)["kind"]
            for line in path.read_text().splitlines()
        }
        assert "arrival" in kinds
        assert "subframe-terminal" in kinds


def test_ctrl_c_exits_130_after_the_trace_is_flushed(tmp_path):
    """SIGINT mid-run: exit 130, one stderr line, and a trace whose last
    line is whole JSON (the sink's final flush ran before exit)."""
    trace = tmp_path / "serve.jsonl"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = ["serve", "--cells", "1", "--subframes", "100000", "--trace", str(trace)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        # A job started in the background inherits an ignored SIGINT, and
        # Python only raises KeyboardInterrupt where SIGINT is not ignored.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        deadline = time.monotonic() + 60
        while not (trace.exists() and trace.read_text()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130, err
    assert out == "" and err.splitlines() == ["serve: interrupted"]
    json.loads(trace.read_text().splitlines()[-1])
