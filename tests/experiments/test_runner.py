"""Tests for the one-shot reproduction runner and its JSON report."""

import json

import pytest

from repro.experiments.runner import PAPER_VALUES, build_report, write_report


@pytest.fixture(scope="module")
def report(reproduction):
    """The report of the session's one shared reproduction (conftest.py)."""
    return build_report(reproduction)


class TestFullReproduction:
    def test_report_structure(self, report):
        for key in ("scale", "workload", "fig12", "fig13", "fig14", "table1", "table2", "shape_checks"):
            assert key in report

    def test_paper_values_attached(self, report):
        assert report["table2"]["NONAP"]["paper_w"] == 25.0
        assert report["table2"]["PowerGating"]["paper_w"] == 18.5
        assert report["fig12"]["paper_max_underestimation"] == 0.054

    def test_shape_checks_pass(self, report):
        checks = report["shape_checks"]
        assert checks["policy_ordering"], checks
        assert checks["estimation_error_small"], checks
        assert checks["nap_wins_most_at_low_load"], checks
        assert checks["all_within_1p5w_of_paper"], checks

    def test_table2_has_all_policies(self, report):
        assert set(report["table2"]) == set(PAPER_VALUES["table2_total_power_w"])

    def test_fig13_bounds(self, report):
        assert report["fig13"]["active_cores_min"] >= 2
        assert report["fig13"]["active_cores_max"] >= 60

    def test_json_roundtrip(self, report, tmp_path):
        path = write_report(report, tmp_path / "report.json")
        loaded = json.loads(path.read_text())
        assert loaded["scale"]["paper_num_subframes"] == 68_000
        assert loaded["scale"]["num_subframes"] == report["scale"]["num_subframes"]
        assert loaded["table2"]["NONAP"]["total_power_w"] == pytest.approx(
            report["table2"]["NONAP"]["total_power_w"]
        )


class TestCliReport:
    def test_cli_report_writes_file(self, tmp_path, capsys):
        """The CLI plumbing only, so at the smallest scale the experiments
        accept (one 200-subframe averaging window, ~2 s): the file is
        written, the shape checks are printed, and the exit code is their
        verdict. Whether they *hold* at a meaningful scale is
        ``TestFullReproduction.test_shape_checks_pass``."""
        from repro.cli import main

        out = tmp_path / "r.json"
        code = main(["report", "--subframes", "200", "--output", str(out)])
        written = json.loads(out.read_text())
        assert written["scale"]["num_subframes"] == 200
        assert code == (0 if all(written["shape_checks"].values()) else 1)
        assert "policy_ordering" in capsys.readouterr().out
