"""Tests for the calibrated cycle cost model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.params import ALL_MODULATIONS, Modulation
from repro.sim.cost import CostModel, MachineSpec
from repro.sim.machine import MachineSimulator, SimConfig
from repro.uplink.parameter_model import TraceParameterModel
from repro.uplink.user import UserParameters


def user(prb, layers=1, mod=Modulation.QPSK):
    return UserParameters(0, prb, layers, mod)


def tasks(program):
    """Every task of a stage program as ``(kernel, cycles)``, in order."""
    return [
        (kernel, c)
        for kind, cycles, kernel in program
        for c in (cycles if kind == "par" else (cycles,))
    ]


class TestMachineSpec:
    def test_paper_defaults(self):
        spec = MachineSpec()
        assert spec.num_cores == 64
        assert spec.num_workers == 62  # one core for drivers, one maintenance
        assert spec.subframe_period_s == pytest.approx(5e-3)
        assert spec.base_power_w == 14.0

    def test_budget(self):
        spec = MachineSpec()
        assert spec.subframe_period_cycles == int(5e-3 * 700e6)
        assert spec.cycles_per_subframe_budget == 62 * int(5e-3 * 700e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineSpec(num_workers=65)
        with pytest.raises(ValueError):
            MachineSpec(clock_hz=0)


class TestCalibration:
    def test_max_user_saturates_budget(self):
        """The 200-PRB/4L/64QAM user consumes ~98 % of the worker budget."""
        cost = CostModel()
        activity = cost.user_activity(user(200, 4, Modulation.QAM64))
        # Slightly above the saturation fraction because of per-task overhead.
        assert 0.97 < activity < 1.01

    def test_saturation_fraction_respected(self):
        cost = CostModel(saturation_fraction=0.5, task_overhead_cycles=0)
        activity = cost.user_activity(user(200, 4, Modulation.QAM64))
        assert activity == pytest.approx(0.5, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(saturation_fraction=0.0)
        with pytest.raises(ValueError):
            CostModel(task_overhead_cycles=-1)


class TestLinearity:
    """Fig. 11's central property: activity linear in PRBs per config."""

    @pytest.mark.parametrize("layers", [1, 2, 4])
    @pytest.mark.parametrize("mod", ALL_MODULATIONS)
    def test_cycles_affine_in_prbs(self, layers, mod):
        cost = CostModel()
        prbs = np.array([20, 60, 100, 140, 180])
        cycles = np.array(
            [cost.user_cycles(user(int(p), layers, mod)) for p in prbs], dtype=float
        )
        # Fit a line; residuals must vanish (affine: overhead is the intercept).
        coeffs = np.polyfit(prbs, cycles, 1)
        residuals = cycles - np.polyval(coeffs, prbs)
        assert np.abs(residuals).max() < 1e-6 * cycles.max()
        assert coeffs[0] > 0

    def test_slope_increases_with_layers(self):
        cost = CostModel()
        slopes = []
        for layers in (1, 2, 3, 4):
            c1 = cost.user_cycles(user(100, layers))
            c2 = cost.user_cycles(user(200, layers))
            slopes.append(c2 - c1)
        assert slopes == sorted(slopes)
        assert slopes[-1] > 3.5 * slopes[0]  # roughly linear in layers

    def test_slope_increases_with_modulation(self):
        cost = CostModel()
        slopes = []
        for mod in ALL_MODULATIONS:
            c1 = cost.user_cycles(user(100, 2, mod))
            c2 = cost.user_cycles(user(200, 2, mod))
            slopes.append(c2 - c1)
        assert slopes == sorted(slopes)
        assert slopes[2] > 1.2 * slopes[0]

    def test_modulation_affects_only_finalize(self):
        """Demapping is the only modulation-sensitive kernel (pass-through
        turbo), so chest/combiner/symbol task costs must not change."""
        cost = CostModel()
        qpsk = cost.stage_program(user(40, 2, Modulation.QPSK))
        for mod in ALL_MODULATIONS:
            program = cost.stage_program(user(40, 2, mod))
            assert program[:-1] == qpsk[:-1]
            assert program[-1][2] == "finalize"
            assert (program[-1] == qpsk[-1]) == (mod is Modulation.QPSK)


class TestTaskCycles:
    def test_user_cycles_is_sum_of_tasks(self):
        cost = CostModel()
        u = user(30, 3, Modulation.QAM16)
        for slot_pipelined in (False, True):
            program = cost.stage_program(u, slot_pipelined=slot_pipelined)
            assert cost.user_cycles(u) == sum(c for _, c in tasks(program))

    def test_every_task_has_positive_cost(self):
        cost = CostModel()
        for slot_pipelined in (False, True):
            program = cost.stage_program(user(2, 1), slot_pipelined=slot_pipelined)
            assert all(c > 0 for _, c in tasks(program))

    def test_subframe_cycles_sums_users(self):
        """The simulator's per-subframe total is the sum of its users'."""
        cost = CostModel(machine=MachineSpec(num_cores=6, num_workers=4))
        subframes = [[user(10), user(20, 2, Modulation.QAM64)], [user(6, 4)]]
        result = MachineSimulator(cost, config=SimConfig(drain_margin_s=1.0)).run(
            TraceParameterModel(subframes), num_subframes=2
        )
        assert result.subframe_cycles.tolist() == [
            sum(cost.user_cycles(u) for u in users) for users in subframes
        ]


class TestStageTable:
    """``stage_program``: a shape is priced once, through one price per
    task, and looked up afterwards."""

    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    @pytest.mark.parametrize("mod", ALL_MODULATIONS)
    @given(half_prb=st.integers(1, 100), antennas=st.integers(1, 8))
    @settings(max_examples=15, deadline=None)
    def test_lookup_equals_per_descriptor_prices(self, layers, mod, half_prb, antennas):
        """The Fig. 5 program: ``antennas × layers`` identical chest tasks,
        the combiner join, ``12 × layers`` identical symbol tasks, the
        finalize join; every task is its scaled work plus one overhead."""
        cost, bare = CostModel(), CostModel(task_overhead_cycles=0)
        u = user(2 * half_prb, layers, mod)
        program = cost.stage_program(u, antennas)
        assert [(kind, kernel) for kind, _, kernel in program] == [
            ("par", "chest"),
            ("ser", "combiner"),
            ("par", "symbol"),
            ("ser", "finalize"),
        ]
        assert [kernel for kernel, _ in tasks(program)] == (
            ["chest"] * antennas * layers
            + ["combiner"]
            + ["symbol"] * 12 * layers
            + ["finalize"]
        )
        for kind, cycles, _ in program:
            if kind == "par":
                assert len(set(cycles)) == 1
        overhead = cost.task_overhead_cycles
        assert [c for _, c in tasks(program)] == [
            c + overhead for _, c in tasks(bare.stage_program(u, antennas))
        ]
        assert cost.stage_program(u, antennas) is program  # the hit
        assert cost.user_cycles(u, antennas) == sum(c for _, c in tasks(program))

    def test_users_of_one_shape_share_an_entry(self):
        cost = CostModel()
        a = cost.stage_program(UserParameters(0, 40, 2, Modulation.QAM16))
        b = cost.stage_program(UserParameters(7, 40, 2, Modulation.QAM16))
        assert a is b
        same = UserParameters(7, 40, 2, Modulation.QAM16)
        assert cost.stage_program(same, 2) is not a
        assert cost.stage_program(same, slot_pipelined=True) is not a
        assert cost.stage_program(UserParameters(7, 42, 2, Modulation.QAM16)) is not a

    @pytest.mark.parametrize(
        "other", [dict(task_overhead_cycles=0), dict(saturation_fraction=0.5)]
    )
    def test_cost_models_do_not_share_entries(self, other):
        u = user(40, 2, Modulation.QAM16)
        default, changed = CostModel(), CostModel(**other)
        assert default.stage_program(u) != changed.stage_program(u)
        # Filling one instance's table left the other's prices alone.
        assert default.stage_program(u) == CostModel().stage_program(u)
        assert changed.user_cycles(u) == sum(
            c for _, c in tasks(changed.stage_program(u))
        )

    def test_reassigning_machine_does_not_change_a_price(self):
        """The scale is fixed at construction: ``cost.machine`` afterwards
        sets the dispatch interval a simulator runs at, not what a task
        costs (``benchmarks/test_ablation_delta.py`` relies on it) — for
        shapes priced before the swap and for shapes first seen after."""
        cost = CostModel()
        seen, unseen = user(40, 2, Modulation.QAM16), user(60, 4, Modulation.QAM64)
        before = cost.stage_program(seen)
        cost.machine = MachineSpec(subframe_period_s=2.5e-3, num_workers=8)
        assert cost.stage_program(seen) is before
        assert cost.stage_program(unseen) == CostModel().stage_program(unseen)
        assert cost.user_cycles(unseen) == CostModel().user_cycles(unseen)


@given(
    prb=st.integers(1, 99),
    layers=st.integers(1, 4),
    mod=st.sampled_from(list(ALL_MODULATIONS)),
)
@settings(max_examples=60, deadline=None)
def test_property_more_prbs_more_cycles(prb, layers, mod):
    cost = CostModel()
    a = cost.user_cycles(user(2 * prb, layers, mod))
    b = cost.user_cycles(user(2 * prb + 2, layers, mod))
    assert b > a

