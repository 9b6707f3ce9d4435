"""Tests for the deadline analysis and the scenario parameter models."""

import numpy as np
import pytest

from repro.experiments.latency import IN_FLIGHT_BOUND, deadline_report
from repro.faults import TerminalState
from repro.phy.params import MAX_PRB, Modulation
from repro.power.estimator import calibrate_from_cost_model
from repro.power.governor import NapIdlePolicy, make_policy
from repro.sim.cost import CostModel, MachineSpec
from repro.sim.machine import MachineSimulator, SimConfig
from repro.uplink.parameter_model import (
    RandomizedParameterModel,
    SteadyStateParameterModel,
)
from repro.uplink.scenarios import DEFAULT_DIURNAL_PROFILE, DiurnalParameterModel


class TestDeadlineReport:
    def _run(self, prb=16, workers=8):
        cost = CostModel(machine=MachineSpec(num_cores=workers + 2, num_workers=workers))
        model = SteadyStateParameterModel(prb, 1, Modulation.QPSK)
        return MachineSimulator(cost, config=SimConfig(drain_margin_s=0.2)).run(
            model, num_subframes=30
        )

    def test_default_deadline_is_three_periods(self):
        result = self._run()
        report = deadline_report(result)
        assert report.deadline_s == pytest.approx(
            IN_FLIGHT_BOUND * result.machine.subframe_period_s
        )

    def test_light_load_meets_deadlines(self):
        report = deadline_report(self._run(prb=8))
        assert report.misses == 0
        assert report.miss_rate == 0.0
        assert report.p99_latency_s <= report.max_latency_s

    def test_overload_misses_deadlines(self):
        """Dispatching ~2x the machine's capacity piles up a backlog."""
        from repro.uplink.parameter_model import TraceParameterModel
        from repro.uplink.user import UserParameters

        cost = CostModel()
        heavy = [
            UserParameters(0, 200, 4, Modulation.QAM64),
            UserParameters(1, 200, 4, Modulation.QAM64),
        ]
        model = TraceParameterModel([heavy])
        result = MachineSimulator(cost, config=SimConfig(drain_margin_s=5.0)).run(
            model, num_subframes=10
        )
        report = deadline_report(result)
        assert report.misses > 0
        assert "misses" in str(report)
        # Latency grows monotonically with the backlog.
        assert result.subframe_latency_s[-1] > result.subframe_latency_s[0]

    @pytest.mark.parametrize("policy", ["NONAP", "NAP+IDLE"])
    def test_report_agrees_with_the_fold_past_the_horizon(self, policy):
        """With no drain margin a run cuts a subframe off at the horizon: it
        completes there (its ``aborted`` terminal), so the report scores it
        just as the telemetry fold does. The study's draw is dispatched
        every 2 ms instead of 5 ms (the deadline is 3·DELTA = 6 ms), at
        the 5 ms prices, so that both policies miss on purpose and the
        miss counts compared are not zero."""
        from repro.obs import Profiler
        from repro.power.governor import make_policy
        from repro.uplink.parameter_model import RandomizedParameterModel

        cost = CostModel()
        cost.machine = MachineSpec(subframe_period_s=2e-3)
        profiler = Profiler(keep_spans=False)
        result = MachineSimulator(
            cost,
            policy=make_policy(
                policy, cost.machine.num_workers, calibrate_from_cost_model(cost)
            ),
            config=SimConfig(drain_margin_s=0.0),
            observers=[profiler],
        ).run(RandomizedParameterModel(total_subframes=200, seed=1), 200)
        truncated = [
            i for i in range(200)
            if result.ledger.state_of(i) is TerminalState.ABORTED
        ]
        assert truncated
        horizon = result.trace.num_windows * result.trace.window_cycles
        for index in truncated:
            assert result.subframe_latency_s[index] == pytest.approx(
                (horizon - index * result.machine.subframe_period_cycles)
                / result.machine.clock_hz
            )
        assert profiler.deadline == (
            IN_FLIGHT_BOUND * result.machine.subframe_period_cycles
        )
        report = deadline_report(result)
        assert report.misses > 0
        assert report.misses == profiler.counters.get("deadline_misses", 0)

    def test_custom_deadline(self):
        report = deadline_report(self._run(), deadline_s=1e-6)
        assert report.misses == report.subframes

    def test_rejects_bad_deadline(self):
        with pytest.raises(ValueError):
            deadline_report(self._run(), deadline_s=0.0)

    @pytest.fixture(scope="class")
    def napidle_vs_nonap(self):
        """NONAP's and NAP+IDLE's deadline reports on one 400-subframe draw."""
        cost = CostModel()
        estimator = calibrate_from_cost_model(cost)
        model = RandomizedParameterModel(total_subframes=400, seed=1, max_prb=160)
        reports = {}
        for policy in (
            make_policy("NONAP", cost.machine.num_workers),
            NapIdlePolicy(cost.machine.num_workers, estimator),
        ):
            result = MachineSimulator(
                cost, policy=policy, config=SimConfig(drain_margin_s=0.3)
            ).run(model, num_subframes=400)
            reports[policy.name] = deadline_report(result, deadline_s=0.05)
        return reports

    def test_napidle_latency_close_to_nonap(self, napidle_vs_nonap):
        """QoS check on Eq. 5's margin: proactively napping cores must not
        blow up tail latency relative to the all-cores-on baseline."""
        reports = napidle_vs_nonap
        assert (
            reports["NAP+IDLE"].p99_latency_s
            < 2.0 * reports["NONAP"].p99_latency_s + 0.01
        )

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 13: NAP+IDLE's p50 latency is 2.09x NONAP's once "
        "the serial demap tail no longer dominates both",
    )
    def test_napidle_median_latency_within_twice_nonap(self, napidle_vs_nonap):
        reports = napidle_vs_nonap
        ratio = reports["NAP+IDLE"].p50_latency_s / reports["NONAP"].p50_latency_s
        print(f"\nNAP+IDLE p50 / NONAP p50 = {ratio:.2f}")
        assert reports["NAP+IDLE"].p50_latency_s < 2.0 * reports["NONAP"].p50_latency_s


class TestScaledLoadModel:
    def test_generated_totals_respect_budget(self):
        """The 25 % load case is the randomized model at half the PRB
        budget; every subframe it draws stays inside that budget."""
        model = RandomizedParameterModel(
            total_subframes=400, seed=2, max_prb=MAX_PRB // 2
        )
        for i in range(0, 400, 23):
            assert sum(u.num_prb for u in model.uplink_parameters(i)) <= model.max_prb


class TestDiurnalModel:
    def test_profile_shape(self):
        assert len(DEFAULT_DIURNAL_PROFILE) == 24
        assert max(DEFAULT_DIURNAL_PROFILE) == 1.0
        assert min(DEFAULT_DIURNAL_PROFILE) >= 0.05

    def test_hours_map_over_run(self):
        model = DiurnalParameterModel(total_subframes=2400, seed=0)
        assert model.hour_of(0) == 0
        assert model.hour_of(100) == 1
        assert model.hour_of(2399) == 23

    def test_night_lighter_than_rush_hour(self):
        model = DiurnalParameterModel(total_subframes=2400, seed=3)
        night = [model.uplink_parameters(i) for i in range(200, 260)]  # 02:00
        peak_start = 18 * 100
        peak = [model.uplink_parameters(i) for i in range(peak_start, peak_start + 60)]
        night_prb = np.mean([sum(u.num_prb for u in users) for users in night])
        peak_prb = np.mean([sum(u.num_prb for u in users) for users in peak])
        assert peak_prb > 3 * night_prb

    def test_peak_hours_heavier_per_user_traffic(self):
        model = DiurnalParameterModel(total_subframes=2400, seed=4)
        night_layers = [
            u.layers for i in range(200, 300) for u in model.uplink_parameters(i)
        ]
        peak_layers = [
            u.layers for i in range(1800, 1900) for u in model.uplink_parameters(i)
        ]
        assert np.mean(peak_layers) > np.mean(night_layers)

    def test_deterministic(self):
        a = DiurnalParameterModel(total_subframes=2400, seed=5)
        b = DiurnalParameterModel(total_subframes=2400, seed=5)
        assert a.uplink_parameters(1234) == b.uplink_parameters(1234)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalParameterModel(total_subframes=10)
        with pytest.raises(ValueError):
            DiurnalParameterModel(profile=(0.5, 1.2))
        with pytest.raises(ValueError):
            DiurnalParameterModel().hour_of(-1)
