"""Tests for the discrete-event machine simulator."""

import numpy as np
import pytest

from repro.phy.params import Modulation
from repro.power.estimator import calibrate_from_cost_model
from repro.power.governor import NapIdlePolicy, NapPolicy
from repro.sim.cost import CostModel, MachineSpec
from repro.sim.machine import AlwaysOnPolicy, MachineSimulator, SimConfig
from repro.sim.trace import CoreState
from repro.uplink.parameter_model import (
    SteadyStateParameterModel,
    TraceParameterModel,
)
from repro.uplink.user import UserParameters


def small_cost(num_workers=8):
    return CostModel(machine=MachineSpec(num_cores=num_workers + 2, num_workers=num_workers))


class TestBasicExecution:
    def test_all_work_executes(self):
        cost = small_cost()
        model = SteadyStateParameterModel(8, 2, Modulation.QPSK)
        sim = MachineSimulator(cost, config=SimConfig(drain_margin_s=0.1))
        result = sim.run(model, num_subframes=10)
        # 10 subframes x (8 chest + 1 comb + 24 data + 1 finalize) tasks.
        assert result.tasks_executed == 10 * (8 + 1 + 24 + 1)
        assert result.users_processed == 10

    def test_conservation_of_core_time(self):
        cost = small_cost()
        model = SteadyStateParameterModel(8, 1, Modulation.QPSK)
        sim = MachineSimulator(cost, config=SimConfig(drain_margin_s=0.1))
        result = sim.run(model, num_subframes=5)
        assert result.trace.check_conservation(atol_cycles=2.0)

    def test_empty_subframes_leave_machine_idle(self):
        cost = small_cost()
        model = TraceParameterModel([[UserParameters(0, 2, 1, Modulation.QPSK)]])

        class EmptyModel:
            def uplink_parameters(self, i):
                return []

        sim = MachineSimulator(cost, config=SimConfig(drain_margin_s=0.0))
        result = sim.run(EmptyModel(), num_subframes=4)
        assert result.tasks_executed == 0
        assert result.mean_activity() == 0.0

    def test_activity_scales_with_load(self):
        cost = CostModel()
        sims = []
        for prb in (20, 100, 200):
            model = SteadyStateParameterModel(prb, 4, Modulation.QAM64)
            sim = MachineSimulator(cost, config=SimConfig(drain_margin_s=0.0))
            result = sim.run(model, num_subframes=60)
            sims.append(result.trace.activity()[1:].mean())
        assert sims[0] < sims[1] < sims[2]
        assert sims[2] > 0.9  # the calibration point saturates

    def test_deterministic(self):
        cost = small_cost()
        model = SteadyStateParameterModel(16, 2, Modulation.QAM16)
        a = MachineSimulator(cost).run(model, num_subframes=8)
        b = MachineSimulator(cost).run(model, num_subframes=8)
        assert np.array_equal(a.trace.activity(), b.trace.activity())
        assert a.tasks_executed == b.tasks_executed

    def test_rejects_zero_subframes(self):
        with pytest.raises(ValueError):
            MachineSimulator(small_cost()).run(
                SteadyStateParameterModel(4, 1, Modulation.QPSK), num_subframes=0
            )

    def test_subframe_latency_positive_and_bounded(self):
        cost = CostModel()
        model = SteadyStateParameterModel(40, 2, Modulation.QAM16)
        result = MachineSimulator(cost, config=SimConfig(drain_margin_s=0.2)).run(
            model, num_subframes=20
        )
        latency = result.subframe_latency_s
        assert np.all(latency > 0)
        assert np.all(latency < 0.2)  # light load: finishes well within margin


class TestPolicyStates:
    def _run(self, policy, prb=8, subframes=40, workers=8):
        cost = small_cost(workers)
        model = SteadyStateParameterModel(prb, 1, Modulation.QPSK)
        sim = MachineSimulator(cost, policy=policy, config=SimConfig(drain_margin_s=0.0))
        return sim.run(model, num_subframes=subframes)

    def test_nonap_idles_in_spin(self):
        result = self._run(AlwaysOnPolicy(8))
        trace = result.trace
        assert trace.total_cycles(CoreState.SPIN) > 0
        assert trace.total_cycles(CoreState.NAP) == 0
        assert trace.total_cycles(CoreState.DISABLED) == 0

    def test_idle_policy_naps_reactively(self):
        result = self._run(AlwaysOnPolicy(8, reactive_nap=True))
        trace = result.trace
        assert trace.total_cycles(CoreState.NAP) > 0
        assert trace.total_cycles(CoreState.DISABLED) == 0
        # Napping replaces almost all spinning.
        assert trace.total_cycles(CoreState.NAP) > 5 * trace.total_cycles(
            CoreState.SPIN
        )

    def test_nap_policy_disables_surplus_cores(self):
        cost = small_cost(8)
        estimator = calibrate_from_cost_model(cost)
        policy = NapPolicy(8, estimator)
        result = self._run(policy)
        trace = result.trace
        assert trace.total_cycles(CoreState.DISABLED) > 0
        assert np.all(result.active_workers <= 8)
        assert len(policy.active_cores_history) == 40

    def test_napidle_combines_both(self):
        cost = small_cost(8)
        estimator = calibrate_from_cost_model(cost)
        result = self._run(NapIdlePolicy(8, estimator))
        trace = result.trace
        assert trace.total_cycles(CoreState.DISABLED) > 0
        assert trace.total_cycles(CoreState.NAP) > 0

    def test_same_compute_cycles_under_all_policies(self):
        """Policies change who idles how, not the work done."""
        cost = small_cost(8)
        estimator = calibrate_from_cost_model(cost)
        compute = []
        for policy in (
            AlwaysOnPolicy(8),
            AlwaysOnPolicy(8, reactive_nap=True),
            NapPolicy(8, estimator),
            NapIdlePolicy(8, estimator),
        ):
            result = self._run(policy)
            compute.append(result.trace.total_cycles(CoreState.COMPUTE))
            assert result.users_processed == 40
        assert max(compute) - min(compute) <= 0.01 * max(compute)

    def test_all_work_completes_under_nap(self):
        cost = small_cost(8)
        estimator = calibrate_from_cost_model(cost)
        result = self._run(NapPolicy(8, estimator), prb=30, subframes=30)
        assert result.users_processed == 30
        assert result.tasks_executed == 30 * (4 + 1 + 12 + 1)


class TestOverload:
    def test_saturated_machine_queues_but_stays_consistent(self):
        """Dispatching more than capacity must not lose users."""
        cost = small_cost(4)
        model = SteadyStateParameterModel(200, 4, Modulation.QAM64)
        sim = MachineSimulator(cost, config=SimConfig(drain_margin_s=10.0))
        result = sim.run(model, num_subframes=4)
        assert result.users_processed == 4
        expected = 4 * cost.user_cycles(model.uplink_parameters(0)[0])
        measured = result.trace.total_cycles(CoreState.COMPUTE)
        assert measured == pytest.approx(expected, rel=0.01)


class TestWakeLatency:
    def test_napping_cores_pick_up_work_after_wake_period(self):
        """Under IDLE, work dispatched while all cores nap waits at most
        one wake period before being picked up."""
        cost = small_cost(4)
        model = SteadyStateParameterModel(8, 1, Modulation.QPSK)
        config = SimConfig(wake_period_s=2e-3, drain_margin_s=0.1)
        policy = AlwaysOnPolicy(4, reactive_nap=True)
        result = MachineSimulator(cost, policy=policy, config=config).run(
            model, num_subframes=10
        )
        assert result.users_processed == 10
        # Latency includes up to one wake period.
        assert result.subframe_latency_s.max() < 0.05
