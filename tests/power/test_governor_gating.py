"""Tests for the resource-management policies and the power-gating model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.params import Modulation
from repro.power.estimator import WorkloadEstimator
from repro.power.gating import PowerGatingModel, PowerGatingParams
from repro.power.governor import (
    OVER_PROVISION_CORES,
    NapIdlePolicy,
    NapPolicy,
    estimated_active_cores,
    make_policy,
)
from repro.sim.machine import AlwaysOnPolicy
from repro.uplink.user import UserParameters


def flat_estimator(k=0.005):
    slopes = {
        (layers, mod): k
        for layers in (1, 2, 3, 4)
        for mod in ("QPSK", "16QAM", "64QAM")
    }
    return WorkloadEstimator(slopes=slopes)


class TestEq5:
    def test_over_provision_margin(self):
        assert OVER_PROVISION_CORES == 2
        assert estimated_active_cores(0.0, 62) == 2
        assert estimated_active_cores(1.0, 62) == 64

    def test_rounds_up(self):
        assert estimated_active_cores(0.5, 62) == 33  # ceil(31) + 2

    def test_validation(self):
        with pytest.raises(ValueError):
            estimated_active_cores(-0.1, 62)
        with pytest.raises(ValueError):
            estimated_active_cores(0.5, 0)


class TestPolicies:
    def test_nonap_and_idle_flags(self):
        nonap, idle = make_policy("NONAP", 62), make_policy("IDLE", 62)
        assert (nonap.reactive_nap, nonap.name) == (False, "NONAP")
        assert (idle.reactive_nap, idle.name) == (True, "IDLE")
        assert nonap.target_active_workers([], 0) == 62
        assert idle.target_active_workers([], 0) == 62

    def test_nap_policy_uses_estimate(self):
        policy = NapPolicy(62, flat_estimator(0.005))
        users = [UserParameters(0, 40, 1, Modulation.QPSK)]
        # estimate = 0.2 -> ceil(12.4)+2 = 15
        assert policy.target_active_workers(users, 0) == 15
        assert policy.active_cores_history == [15]

    def test_nap_policy_clamps_to_workers(self):
        policy = NapPolicy(62, flat_estimator(0.01))
        users = [UserParameters(0, 200, 4, Modulation.QAM64)]
        # raw = ceil(2.0*62)+2 = 126, clamped to 62; raw kept in history.
        assert policy.target_active_workers(users, 0) == 62
        assert policy.active_cores_history == [126]

    def test_napidle_flags(self):
        policy = NapIdlePolicy(62, flat_estimator())
        assert policy.reactive_nap is True
        assert policy.name == "NAP+IDLE"

    def test_factory(self):
        assert isinstance(make_policy("NONAP", 62), AlwaysOnPolicy)
        assert isinstance(make_policy("idle", 62), AlwaysOnPolicy)
        assert isinstance(make_policy("NAP", 62, flat_estimator()), NapPolicy)
        assert isinstance(
            make_policy("NAP+IDLE", 62, flat_estimator()), NapIdlePolicy
        )

    def test_factory_requires_estimator_for_nap(self):
        with pytest.raises(ValueError):
            make_policy("NAP", 62)
        with pytest.raises(ValueError):
            make_policy("bogus", 62, flat_estimator())


class TestGatingEquations:
    def test_eq6_group_quantization(self):
        model = PowerGatingModel()
        assert model.quantize(np.array([1, 8, 9, 17, 64])).tolist() == [
            8,
            8,
            16,
            24,
            64,
        ]

    def test_eq6_clips_to_total_cores(self):
        model = PowerGatingModel()
        assert model.quantize(np.array([100])).tolist() == [64]

    def test_eq7_window_max(self):
        model = PowerGatingModel()
        active = np.array([8, 8, 8, 32, 8, 8, 8, 8])
        powered = model.powered_window(active)
        # 32 must be powered from two subframes before to two after.
        assert powered.tolist() == [8, 32, 32, 32, 32, 32, 8, 8]

    def test_eq8_toggle_overhead(self):
        model = PowerGatingModel()
        active = np.array([8] * 4 + [16] * 4 + [8] * 5)
        trace = model.evaluate(active)
        # One 8-core group turns on once (two subframes early, thanks to the
        # Eq. 7 lookahead) and off once (two subframes late).
        toggles = trace.overhead_w > 0
        assert toggles.sum() == 2
        assert trace.powered[2] == 16  # powered ahead of the demand spike
        assert trace.overhead_w.max() == pytest.approx(8 * 0.015)

    def test_eq9_saving(self):
        model = PowerGatingModel()
        trace = model.evaluate(np.full(10, 8))
        # 56 cores off, no toggles: (64-8)*0.055 = 3.08 W.
        assert trace.saving_w[5] == pytest.approx(3.08)

    def test_full_machine_no_saving(self):
        model = PowerGatingModel()
        trace = model.evaluate(np.full(10, 64))
        assert np.allclose(trace.saving_w, 0.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PowerGatingParams(total_cores=60, group_size=8)
        with pytest.raises(ValueError):
            PowerGatingParams(static_power_per_core_w=-1)

    def test_paper_static_power_assumption(self):
        """25 % of the 14 W base power over 64 cores = 55 mW/core."""
        params = PowerGatingParams()
        assert params.static_power_per_core_w == pytest.approx(
            0.25 * 14.0 / 64, abs=0.001
        )

    def test_apply_to_power_subtracts_savings(self):
        model = PowerGatingModel()
        power = np.full(2, 20.0)
        active = np.full(40, 8)  # 40 subframes @5ms → 2 windows of 0.1s
        gated = model.apply_to_power(power, 0.1, active, 5e-3)
        assert np.allclose(gated, 20.0 - 3.08)

    def test_apply_validation(self):
        model = PowerGatingModel()
        with pytest.raises(ValueError):
            model.apply_to_power(np.ones(2), 0.0, np.ones(4), 5e-3)
        with pytest.raises(ValueError):
            model.apply_to_power(np.ones(2), 1e-3, np.ones(4), 5e-3)


@given(
    values=st.lists(st.integers(0, 70), min_size=1, max_size=50),
)
@settings(max_examples=50, deadline=None)
def test_property_powered_at_least_active(values):
    model = PowerGatingModel()
    active = model.quantize(np.array(values))
    powered = model.powered_window(active)
    assert np.all(powered >= active)
    assert np.all(powered <= 64)
    assert np.all(powered % 8 == 0)
