"""Tests for the per-slot pipelined job structure (Fig. 5 ablation)."""

import numpy as np
import pytest

from repro.phy.params import Modulation
from repro.sim.cost import CostModel, MachineSpec
from repro.sim.machine import MachineSimulator, SimConfig
from repro.sim.trace import CoreState
from repro.uplink.parameter_model import SteadyStateParameterModel, TraceParameterModel
from repro.uplink.user import UserParameters


def small_cost(workers=8):
    return CostModel(machine=MachineSpec(num_cores=workers + 2, num_workers=workers))


class TestSlotPipelined:
    def test_same_total_compute_cycles(self):
        """Per-slot splitting reorganizes, never changes, the work."""
        cost = small_cost()
        user = UserParameters(0, 40, 2, Modulation.QAM16)
        model = TraceParameterModel([[user]])
        results = {}
        for pipelined in (False, True):
            sim = MachineSimulator(
                cost, config=SimConfig(drain_margin_s=1.0), slot_pipelined=pipelined
            )
            results[pipelined] = sim.run(model, num_subframes=4)
        a = results[False].trace.total_cycles(CoreState.COMPUTE)
        b = results[True].trace.total_cycles(CoreState.COMPUTE)
        assert a == pytest.approx(b, rel=1e-12)
        assert results[True].users_processed == 4

    @pytest.mark.parametrize(
        "user",
        [
            UserParameters(0, 2, 1, Modulation.QPSK),
            UserParameters(0, 40, 2, Modulation.QAM16),
            UserParameters(0, 34, 3, Modulation.QAM64),
            UserParameters(0, 200, 4, Modulation.QAM64),
        ],
    )
    def test_stage_programs_sum_to_the_same_cycles(self, user):
        """Both programs are priced from the same four task prices; odd
        prices must not lose a cycle in the per-slot split."""
        cost = small_cost()
        totals = []
        for pipelined in (False, True):
            program = cost.stage_program(user, 4, slot_pipelined=pipelined)
            totals.append(
                sum(sum(s[1]) if s[0] == "par" else s[1] for s in program)
            )
        assert totals[0] == totals[1] == cost.user_cycles(user, 4)
        piped = cost.stage_program(user, 4, slot_pipelined=True)
        assert [s[2] for s in piped] == [
            "chest", "combiner", "symbol", "chest", "combiner", "symbol", "finalize"
        ]

    def test_more_stages_more_scheduled_units(self):
        cost = small_cost()
        user = UserParameters(0, 40, 2, Modulation.QAM16)
        model = TraceParameterModel([[user]])
        plain = MachineSimulator(cost, config=SimConfig(drain_margin_s=1.0)).run(
            model, num_subframes=2
        )
        piped = MachineSimulator(
            cost, config=SimConfig(drain_margin_s=1.0), slot_pipelined=True
        ).run(model, num_subframes=2)
        # Each chest task splits into two per-slot tasks and the combiner
        # runs once per slot: + (antennas x layers + 1) per user.
        per_user_extra = 4 * user.layers + 1
        assert piped.tasks_executed == plain.tasks_executed + 2 * per_user_extra

    def test_work_completes_under_all_policies(self):
        from repro.power.estimator import calibrate_from_cost_model
        from repro.power.governor import NapIdlePolicy

        cost = small_cost()
        estimator = calibrate_from_cost_model(cost)
        model = SteadyStateParameterModel(24, 2, Modulation.QPSK)
        sim = MachineSimulator(
            cost,
            policy=NapIdlePolicy(8, estimator),
            config=SimConfig(drain_margin_s=1.0),
            slot_pipelined=True,
        )
        result = sim.run(model, num_subframes=20)
        assert result.users_processed == 20
        assert result.trace.check_conservation(atol_cycles=2.0)

    def test_latency_structure_differs(self):
        """Pipelined slots change when work becomes available, so the
        latency profile differs from the whole-subframe structure while
        throughput is identical."""
        # Seven workers: ceil(48/7) != 2*ceil(24/7), so splitting the data
        # stage per slot genuinely shifts the critical path (with divisible
        # worker counts the wave arithmetic makes both structures equal).
        cost = small_cost(7)
        user = UserParameters(0, 100, 4, Modulation.QAM64)
        model = TraceParameterModel([[user]])
        lat = {}
        for pipelined in (False, True):
            sim = MachineSimulator(
                cost, config=SimConfig(drain_margin_s=2.0), slot_pipelined=pipelined
            )
            result = sim.run(model, num_subframes=1)
            lat[pipelined] = result.subframe_latency_s[0]
        assert lat[True] != lat[False]
        assert lat[True] > 0 and lat[False] > 0
