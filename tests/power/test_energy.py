"""Tests for energy accounting."""

import numpy as np
import pytest

from repro.power.energy import EnergyReport, energy_report
from repro.power.model import PowerTrace


def make_trace(watts, window_s=0.1):
    watts = np.asarray(watts, dtype=float)
    zeros = np.zeros_like(watts)
    return PowerTrace(
        window_s=window_s,
        base_power_w=14.0,
        total_w=watts,
        dynamic_w=watts - 14.0,
        leakage_w=zeros,
        temperature_c=zeros + 50.0,
    )


class TestIntegrateEnergy:
    """Each window holds its mean power: energy is the sum × window."""

    def test_constant_power(self):
        report = energy_report(np.full(10, 20.0), window_s=0.1)
        assert report.energy_j == pytest.approx(20.0)

    def test_varying_power(self):
        report = energy_report(np.array([10.0, 30.0]), window_s=0.5)
        assert report.energy_j == pytest.approx(20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            energy_report(np.ones(3), window_s=0.0)
        with pytest.raises(ValueError):
            energy_report(np.array([]), window_s=0.1)


class TestEnergyReport:
    def test_from_power_trace(self):
        report = energy_report(make_trace(np.full(100, 25.0)))
        assert report.duration_s == pytest.approx(10.0)
        assert report.energy_j == pytest.approx(250.0)
        assert report.mean_power_w == pytest.approx(25.0)
        assert report.daily_kwh == pytest.approx(25.0 * 86400 / 3.6e6)

    def test_from_raw_array(self):
        report = energy_report(np.full(5, 10.0), window_s=2.0)
        assert report.energy_j == pytest.approx(100.0)

    def test_raw_array_requires_window(self):
        with pytest.raises(ValueError):
            energy_report(np.ones(5))

    def test_savings_vs_baseline(self):
        nonap = energy_report(make_trace(np.full(10, 25.0)))
        gated = energy_report(make_trace(np.full(10, 18.5)))
        assert gated.savings_vs(nonap) == pytest.approx(1 - 18.5 / 25.0)

    def test_savings_rejects_zero_baseline(self):
        report = energy_report(make_trace(np.full(2, 5.0)))
        zero = EnergyReport(1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            report.savings_vs(zero)
