"""Tests for the DVFS extension (DESIGN.md §5)."""

import numpy as np
import pytest

from repro.power.dvfs import LADDER, DvfsModel, OperatingPoint


class TestOperatingPoint:
    def test_power_factor_cubic_like(self):
        nominal = OperatingPoint(1.0, 1.0)
        half = OperatingPoint(0.5, 0.8)
        assert nominal.dynamic_power_factor == 1.0
        assert half.dynamic_power_factor == pytest.approx(0.5 * 0.64)

    def test_validation(self):
        with pytest.raises(ValueError):
            OperatingPoint(0.0, 1.0)
        with pytest.raises(ValueError):
            OperatingPoint(1.0, 1.5)


class TestParams:
    def test_default_ladder_sorted_and_nominal_topped(self):
        freqs = [p.frequency for p in LADDER]
        assert freqs == sorted(freqs)
        assert freqs[-1] == 1.0


class TestSelection:
    def test_low_activity_picks_slowest(self):
        model = DvfsModel()
        assert model.select_point(0.05).frequency == 0.25

    def test_high_activity_picks_nominal(self):
        model = DvfsModel()
        assert model.select_point(0.95).frequency == 1.0

    def test_headroom_boundary(self):
        model = DvfsModel()
        # 90 % headroom: activity 0.45 == 0.9 * 0.5: the 0.5 point still qualifies.
        assert model.select_point(0.45).frequency == 0.5
        assert model.select_point(0.46).frequency == 0.75

    def test_over_unity_activity_clamps_to_nominal(self):
        assert DvfsModel().select_point(1.5).frequency == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DvfsModel().select_point(-0.1)


class TestEvaluate:
    def test_lookahead_raises_frequency_early(self):
        model = DvfsModel()
        activity = np.array([0.1] * 5 + [0.95] + [0.1] * 5)
        trace = model.evaluate(activity)
        # Nominal frequency from two subframes before the spike to two after.
        assert trace.frequency[3] == 1.0
        assert trace.frequency[7] == 1.0
        assert trace.frequency[0] == 0.25
        assert trace.frequency[-1] == 0.25

    def test_switch_overhead_charged_on_changes(self):
        model = DvfsModel()
        activity = np.array([0.1] * 5 + [0.95] * 5 + [0.1] * 5)
        trace = model.evaluate(activity)
        assert (trace.switch_overhead_w > 0).sum() == 2  # one up, one down

    def test_constant_load_no_switches(self):
        trace = DvfsModel().evaluate(np.full(20, 0.5))
        assert np.all(trace.switch_overhead_w == 0)
        assert len(np.unique(trace.frequency)) == 1

    def test_empty_series_gives_empty_traces(self):
        trace = DvfsModel().evaluate(np.array([]))
        assert trace.frequency.shape == (0,)
        assert trace.power_factor.shape == (0,)
        assert trace.switch_overhead_w.shape == (0,)

    def test_power_factor_below_one_at_low_load(self):
        trace = DvfsModel().evaluate(np.full(20, 0.1))
        assert trace.power_factor.mean() < 0.2


class TestApplyToPower:
    def test_scales_dynamic_power(self):
        model = DvfsModel()
        dynamic = np.array([10.0, 10.0])
        activity = np.full(40, 0.1)  # 40 subframes @ 5 ms = 2 x 0.1 s windows
        adjusted = model.apply_to_power(dynamic, 0.1, activity, 5e-3)
        expected = 10.0 * OperatingPoint(0.25, 0.70).dynamic_power_factor
        assert adjusted.tolist() == pytest.approx([expected, expected])

    def test_nominal_load_unchanged(self):
        model = DvfsModel()
        dynamic = np.array([12.0])
        activity = np.full(20, 0.95)
        adjusted = model.apply_to_power(dynamic, 0.1, activity, 5e-3)
        assert adjusted[0] == pytest.approx(12.0)

    def test_validation(self):
        model = DvfsModel()
        with pytest.raises(ValueError):
            model.apply_to_power(np.ones(2), 0.0, np.ones(4), 5e-3)
        with pytest.raises(ValueError):
            model.apply_to_power(np.ones(2), 1e-3, np.ones(4), 5e-3)
