"""Tests for the workload estimator (Eqs. 3-4) and its calibrations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.params import ALL_MODULATIONS, Modulation
from repro.power.estimator import (
    WorkloadEstimator,
    all_configurations,
    calibrate_from_cost_model,
    calibrate_from_simulation,
    fit_slope_through_origin,
)
from repro.sim.cost import CostModel, MachineSpec
from repro.uplink.user import UserParameters


class TestSlopeFit:
    def test_exact_line_through_origin(self):
        prbs = np.array([2.0, 50.0, 100.0])
        assert fit_slope_through_origin(prbs, 0.003 * prbs) == pytest.approx(0.003)

    def test_least_squares_on_noisy_data(self):
        rng = np.random.default_rng(0)
        prbs = np.arange(2.0, 201.0, 2.0)
        acts = 0.005 * prbs + rng.normal(0, 0.002, prbs.size)
        k = fit_slope_through_origin(prbs, acts)
        assert k == pytest.approx(0.005, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_slope_through_origin(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_slope_through_origin(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            fit_slope_through_origin(np.zeros(3), np.ones(3))


class TestConfigurations:
    def test_twelve_configs(self):
        configs = all_configurations()
        assert len(configs) == 12  # Fig. 11's 12 curves
        assert (1, Modulation.QPSK) in configs
        assert (4, Modulation.QAM64) in configs


class TestWorkloadEstimator:
    def test_eq3_eq4(self):
        est = WorkloadEstimator(
            slopes={(1, "QPSK"): 0.001, (2, "16QAM"): 0.004}
        )
        u1 = UserParameters(0, 50, 1, Modulation.QPSK)
        u2 = UserParameters(1, 10, 2, Modulation.QAM16)
        assert est.estimate_user(u1) == pytest.approx(0.05)
        assert est.estimate_subframe([u1, u2]) == pytest.approx(0.05 + 0.04)

    def test_missing_config_raises(self):
        est = WorkloadEstimator(slopes={(1, "QPSK"): 0.001})
        with pytest.raises(KeyError):
            est.estimate_user(UserParameters(0, 4, 2, Modulation.QAM64))

    def test_rejects_nonpositive_slopes(self):
        with pytest.raises(ValueError):
            WorkloadEstimator(slopes={(1, "QPSK"): 0.0})


class TestCostModelCalibration:
    def test_covers_all_twelve_configs(self):
        est = calibrate_from_cost_model(CostModel())
        assert len(est.slopes) == 12

    def test_slopes_ordered_by_complexity(self):
        """Fig. 11: higher layers and higher-order modulation → steeper."""
        est = calibrate_from_cost_model(CostModel())
        for mod in ALL_MODULATIONS:
            ks = [est.slope(layers, mod) for layers in (1, 2, 3, 4)]
            assert ks == sorted(ks)
        for layers in (1, 2, 3, 4):
            ks = [est.slope(layers, m) for m in ALL_MODULATIONS]
            assert ks == sorted(ks)

    def test_max_config_estimates_saturation(self):
        est = calibrate_from_cost_model(CostModel())
        user = UserParameters(0, 200, 4, Modulation.QAM64)
        assert est.estimate_user(user) == pytest.approx(0.98, abs=0.02)


class TestSimulationCalibration:
    def test_matches_cost_model_calibration(self):
        """The paper's measurement procedure converges to the model slopes."""
        cost = CostModel(machine=MachineSpec(num_cores=18, num_workers=16))
        analytic = calibrate_from_cost_model(cost)
        measured, sweeps = calibrate_from_simulation(
            cost,
            prb_values=[40, 120, 200],
            settle_subframes=10,
            measure_subframes=40,
        )
        for key, k_measured in measured.slopes.items():
            k_analytic = analytic.slopes[key]
            assert k_measured == pytest.approx(k_analytic, rel=0.1), key
        assert len(sweeps) == 12

    def test_sweep_activities_increase_with_prbs(self):
        cost = CostModel(machine=MachineSpec(num_cores=10, num_workers=8))
        _, sweeps = calibrate_from_simulation(
            cost, prb_values=[20, 100, 180], settle_subframes=5, measure_subframes=20
        )
        for (layers, mod), (prbs, acts) in sweeps.items():
            assert np.all(np.diff(acts) > 0), (layers, mod)

    def test_rejects_out_of_range_prbs(self):
        with pytest.raises(ValueError):
            calibrate_from_simulation(CostModel(), prb_values=[0, 10])


@given(
    prb=st.integers(1, 50),
    layers=st.integers(1, 4),
    mod=st.sampled_from(list(ALL_MODULATIONS)),
)
@settings(max_examples=40, deadline=None)
def test_property_estimates_scale_linearly(prb, layers, mod):
    est = calibrate_from_cost_model(CostModel())
    small = est.estimate_user(UserParameters(0, 2 * prb, layers, mod))
    big = est.estimate_user(UserParameters(0, 4 * prb, layers, mod))
    assert big == pytest.approx(2 * small, rel=1e-9)
