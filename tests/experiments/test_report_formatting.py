"""Additional formatting/report edge-case tests."""

import numpy as np
import pytest

from repro.experiments.report import format_calibration, format_series
from repro.power import calibrate_from_simulation
from repro.sim import CostModel


class TestFormatSeries:
    def test_downsamples_long_series(self):
        xs = np.arange(1000)
        out = format_series("long", xs, xs, max_points=5)
        assert out.count("(") == 5

    def test_keeps_short_series_whole(self):
        xs = np.arange(3)
        out = format_series("short", xs, xs, max_points=10)
        assert out.count("(") == 3

    def test_includes_endpoints(self):
        xs = np.linspace(0, 100, 50)
        out = format_series("s", xs, xs * 2)
        assert "(0," in out
        assert "(100," in out

    def test_name_prefix(self):
        assert format_series("abc", [1], [2]).startswith("abc:")


class TestFormatCalibration:
    def test_one_line_per_configuration_with_its_slope(self):
        """Fig. 11 as ``repro calibrate`` prints it, on a two-PRB sweep."""
        estimator, sweeps = calibrate_from_simulation(
            CostModel(), prb_values=(2, 200), settle_subframes=4, measure_subframes=16
        )
        out = format_calibration(sweeps, estimator.slopes)
        lines = out.splitlines()
        assert lines[0].startswith("Fig. 11 activity vs PRBs")
        assert len(lines) == 1 + 12
        for (layers, modulation), slope in estimator.slopes.items():
            key = [modulation, f"{layers}L:"]
            [line] = [line for line in lines[1:] if line.split()[:2] == key]
            assert f"k={slope:.6f}" in line
            assert "sweep: (2," in line and "(200," in line


class TestEstimationResultEdges:
    def test_pure_overestimation(self):
        from repro.experiments.estimation import EstimationResult

        result = EstimationResult(
            window_s=1.0,
            measured=np.array([0.4, 0.5]),
            estimated=np.array([0.45, 0.55]),
        )
        assert result.max_underestimation() == 0.0
        assert result.max_overestimation() == pytest.approx(0.05)
        assert result.mean_absolute_error() == pytest.approx(0.05)

    def test_pure_underestimation(self):
        from repro.experiments.estimation import EstimationResult

        result = EstimationResult(
            window_s=1.0,
            measured=np.array([0.5]),
            estimated=np.array([0.44]),
        )
        assert result.max_underestimation() == pytest.approx(0.06)
        assert result.max_overestimation() == 0.0

    def test_times_axis(self):
        from repro.experiments.estimation import EstimationResult

        result = EstimationResult(
            window_s=2.0,
            measured=np.zeros(3),
            estimated=np.zeros(3),
        )
        assert result.times_s.tolist() == [1.0, 3.0, 5.0]


class TestPowerStudyTableEdges:
    def test_table_rows_are_consistent(self, reproduction):
        """Table II's NONAP row is by definition 0 % vs itself, and every
        relative column is consistent with the absolute watts: true of
        any study, so the session's one is read."""
        rows = {
            name: (w, vn, vi) for name, w, vn, vi in reproduction.study.table2()
        }
        assert rows["NONAP"][1] == 0.0
        assert rows["IDLE"][2] == 0.0
        nonap_w = rows["NONAP"][0]
        for name, (w, vs_nonap, _) in rows.items():
            assert vs_nonap == pytest.approx(w / nonap_w - 1.0)
