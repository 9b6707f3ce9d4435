"""Tests for the chip power model, the substitute for the paper's DAQ."""

import numpy as np
import pytest

from repro.power import model
from repro.power.model import PowerModel
from repro.sim.trace import CoreState, OccupancyTrace


def trace_with(fractions: dict, workers=62, windows=4, window_cycles=1000):
    """Build a trace with constant per-state occupancy fractions."""
    trace = OccupancyTrace(
        window_cycles=window_cycles, num_windows=windows, num_workers=workers
    )
    horizon = windows * window_cycles
    start = 0
    for state, frac in fractions.items():
        span = int(round(frac * workers))
        for _ in range(span):
            trace.add_segment(state, 0, horizon)
    return trace


class TestParams:
    def test_defaults_ordered(self):
        price = model.STATE_POWER_W
        assert (
            price[CoreState.DISABLED]
            < price[CoreState.NAP]
            < price[CoreState.SPIN]
            < price[CoreState.COMPUTE]
        )
        assert model.BASE_POWER_W == 14.0

    def test_reference_temperature(self):
        assert model.REFERENCE_TEMPERATURE_C == pytest.approx(
            model.AMBIENT_C + model.THERMAL_RESISTANCE_C_PER_W * 14.0
        )


class TestDynamicPower:
    def test_all_compute_hits_max_dynamic(self):
        """62 cores computing ≈ 12 W dynamic (the NONAP peak)."""
        trace = trace_with({CoreState.COMPUTE: 1.0})
        dynamic = PowerModel().dynamic_power(trace)
        compute_w = model.STATE_POWER_W[CoreState.COMPUTE]
        assert dynamic[0] == pytest.approx(62 * compute_w, rel=1e-6)
        assert 11.0 < dynamic[0] < 12.5

    def test_spin_cheaper_than_compute(self):
        compute = PowerModel().dynamic_power(trace_with({CoreState.COMPUTE: 1.0}))[0]
        spin = PowerModel().dynamic_power(trace_with({CoreState.SPIN: 1.0}))[0]
        assert spin < compute
        assert spin > 0.8 * compute  # busy-spin is nearly as hungry

    def test_nap_far_cheaper_than_spin(self):
        spin = PowerModel().dynamic_power(trace_with({CoreState.SPIN: 1.0}))[0]
        nap = PowerModel().dynamic_power(trace_with({CoreState.NAP: 1.0}))[0]
        disabled = PowerModel().dynamic_power(
            trace_with({CoreState.DISABLED: 1.0})
        )[0]
        assert nap < 0.3 * spin
        assert disabled < nap

    def test_mixture_is_linear(self):
        half = trace_with({CoreState.COMPUTE: 0.5, CoreState.SPIN: 0.5})
        full_c = trace_with({CoreState.COMPUTE: 1.0})
        full_s = trace_with({CoreState.SPIN: 1.0})
        power_model = PowerModel()
        assert power_model.dynamic_power(half)[0] == pytest.approx(
            0.5 * (
                power_model.dynamic_power(full_c)[0]
                + power_model.dynamic_power(full_s)[0]
            ),
            rel=0.02,
        )


class TestThermalFeedback:
    def test_sustained_load_raises_power_over_time(self):
        """The paper's observation: high average power heats the chip and
        leakage grows, so late windows dissipate more than early ones."""
        trace = OccupancyTrace(window_cycles=70_000_000, num_windows=100, num_workers=62)
        horizon = 100 * 70_000_000
        for _ in range(62):
            trace.add_segment(CoreState.COMPUTE, 0, horizon)
        power = PowerModel().evaluate(trace, clock_hz=700e6)
        # 10 s of full load against a 60 s thermal time constant: a clear
        # but partial rise (the paper's 340 s runs show the full effect).
        assert power.total_w[-1] > power.total_w[0] + 0.15
        assert power.leakage_w[-1] > power.leakage_w[0]
        assert np.all(np.diff(power.temperature_c) >= -1e-9)

    def test_idle_machine_stays_at_base(self):
        trace = trace_with({CoreState.DISABLED: 1.0}, windows=20)
        power = PowerModel().evaluate(trace, clock_hz=700e6)
        # Disabled cores add ~0.5 W; leakage stays near zero.
        assert power.total_w[-1] == pytest.approx(
            14.0 + 62 * model.STATE_POWER_W[CoreState.DISABLED], abs=0.3
        )
        assert power.leakage_w.max() < 0.2

    def test_times_axis(self):
        trace = trace_with({CoreState.SPIN: 1.0}, windows=3, window_cycles=70_000_000)
        power = PowerModel().evaluate(trace, clock_hz=700e6)
        assert power.times_s.tolist() == pytest.approx([0.05, 0.15, 0.25])

