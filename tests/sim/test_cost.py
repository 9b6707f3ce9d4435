"""Tests for the calibrated cycle cost model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.params import ALL_MODULATIONS, Modulation
from repro.sim.cost import CostModel, MachineSpec
from repro.uplink.tasks import describe_user_tasks, describe_user_tasks_batched
from repro.uplink.user import UserParameters


def user(prb, layers=1, mod=Modulation.QPSK):
    return UserParameters(0, prb, layers, mod)


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
        for mod in ALL_MODULATIONS:
            chest, combiner, data, _ = describe_user_tasks(user(40, 2, mod))
            assert cost.task_cycles(chest[0]) == cost.task_cycles(
                describe_user_tasks(user(40, 2, Modulation.QPSK))[0][0]
            )
            assert cost.task_cycles(combiner) == cost.task_cycles(
                describe_user_tasks(user(40, 2, Modulation.QPSK))[1]
            )


class TestTaskCycles:
    def test_user_cycles_is_sum_of_tasks(self):
        cost = CostModel()
        u = user(30, 3, Modulation.QAM16)
        chest, combiner, data, finalize = describe_user_tasks(u)
        total = (
            sum(cost.task_cycles(t) for t in chest)
            + cost.task_cycles(combiner)
            + sum(cost.task_cycles(t) for t in data)
            + cost.task_cycles(finalize)
        )
        assert cost.user_cycles(u) == total

    def test_unknown_kind_rejected(self):
        from repro.uplink.tasks import TaskDescriptor

        cost = CostModel()
        bad = TaskDescriptor(
            kind="mystery", user_id=0, num_prb=10, layers=1, bits_per_symbol=2, antennas=4
        )
        with pytest.raises(ValueError):
            cost.task_cycles(bad)

    def test_every_task_has_positive_cost(self):
        cost = CostModel()
        chest, combiner, data, finalize = describe_user_tasks(user(2, 1))
        for task in [*chest, combiner, *data, finalize]:
            assert cost.task_cycles(task) > 0

    def test_subframe_cycles_sums_users(self):
        cost = CostModel()
        users = [user(10), user(20, 2, Modulation.QAM64)]
        assert cost.subframe_cycles(users) == sum(
            cost.user_cycles(u) for u in users
        )


class TestStageTable:
    """``stage_cycles``: a shape is priced once, through the one task graph
    and the one price, and looked up afterwards."""

    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    @pytest.mark.parametrize("mod", ALL_MODULATIONS)
    @given(half_prb=st.integers(1, 100), antennas=st.integers(1, 8))
    @settings(max_examples=15, deadline=None)
    def test_lookup_equals_per_descriptor_prices(self, layers, mod, half_prb, antennas):
        cost = CostModel()
        u = user(2 * half_prb, layers, mod)
        chest, combiner, data, finalize = describe_user_tasks(u, antennas)
        chest_cycles = [cost.task_cycles(t) for t in chest]
        symbol_cycles = [cost.task_cycles(t) for t in data]
        for _ in range(2):  # the miss that fills the entry, then the hit
            c, n_c, comb, s, n_s, fin = cost.stage_cycles(u, antennas)
            assert [c] * n_c == chest_cycles
            assert comb == cost.task_cycles(combiner)
            assert [s] * n_s == symbol_cycles
            assert fin == cost.task_cycles(finalize)
            assert cost.user_cycles(u, antennas) == (
                sum(chest_cycles) + comb + sum(symbol_cycles) + fin
            )

    def test_users_of_one_shape_share_an_entry(self):
        cost = CostModel()
        a = cost.stage_cycles(UserParameters(0, 40, 2, Modulation.QAM16))
        b = cost.stage_cycles(UserParameters(7, 40, 2, Modulation.QAM16))
        assert a is b
        assert cost.stage_cycles(UserParameters(7, 40, 2, Modulation.QAM16), 2) is not a
        assert cost.stage_cycles(UserParameters(7, 42, 2, Modulation.QAM16)) is not a

    @pytest.mark.parametrize(
        "other", [dict(task_overhead_cycles=0), dict(saturation_fraction=0.5)]
    )
    def test_cost_models_do_not_share_entries(self, other):
        u = user(40, 2, Modulation.QAM16)
        default, changed = CostModel(), CostModel(**other)
        assert default.stage_cycles(u) != changed.stage_cycles(u)
        # Filling one instance's table left the other's prices alone.
        assert default.stage_cycles(u) == CostModel().stage_cycles(u)
        chest, combiner, data, finalize = describe_user_tasks(u)
        assert changed.user_cycles(u) == sum(
            changed.task_cycles(t) for t in [*chest, combiner, *data, finalize]
        )

    def test_reassigning_machine_does_not_change_a_price(self):
        """The scale is fixed at construction: ``cost.machine`` afterwards
        sets the dispatch interval a simulator runs at, not what a task
        costs (``benchmarks/test_ablation_delta.py`` relies on it) — for
        shapes priced before the swap and for shapes first seen after."""
        cost = CostModel()
        seen, unseen = user(40, 2, Modulation.QAM16), user(60, 4, Modulation.QAM64)
        before = cost.stage_cycles(seen)
        cost.machine = MachineSpec(subframe_period_s=2.5e-3, num_workers=8)
        assert cost.stage_cycles(seen) == before
        assert cost.stage_cycles(unseen) == CostModel().stage_cycles(unseen)
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


class TestBatchedKinds:
    """The vectorized backend's fused stage tasks in the cost model."""

    @staticmethod
    def _num_tasks(u, antennas=4):
        chest, _, data, _ = describe_user_tasks(u, antennas)
        return len(chest) + 1 + len(data) + 1

    def test_join_stages_price_identically(self):
        """combiner/finalize are already single tasks; fusing changes nothing."""
        cost = CostModel()
        u = user(30, 3, Modulation.QAM64)
        _, combiner, _, finalize = describe_user_tasks(u)
        batched = describe_user_tasks_batched(u)
        assert cost.task_cycles(batched[1]) == cost.task_cycles(combiner)
        assert cost.task_cycles(batched[3]) == cost.task_cycles(finalize)

    def test_overhead_collapse_is_the_only_difference(self):
        """Batched user cost = per-task cost - (num_tasks - 4) overheads,
        up to one rounding step per task."""
        cost = CostModel()
        for u in [user(10), user(30, 2, Modulation.QAM16), user(80, 4, Modulation.QAM64)]:
            num_tasks = self._num_tasks(u)
            saved = cost.user_cycles(u) - cost.user_cycles_batched(u)
            expected = (num_tasks - 4) * cost.task_overhead_cycles
            assert abs(saved - expected) <= num_tasks

    def test_zero_overhead_model_prices_backends_equally(self):
        """With no per-task overhead the fused stages carry exactly the
        summed stage work (modulo per-task rounding)."""
        cost = CostModel(task_overhead_cycles=0)
        u = user(40, 4, Modulation.QAM64)
        assert abs(cost.user_cycles(u) - cost.user_cycles_batched(u)) <= self._num_tasks(u)

    def test_batched_is_never_costlier(self):
        cost = CostModel()
        for layers in (1, 2, 4):
            u = user(20, layers, Modulation.QAM16)
            assert cost.user_cycles_batched(u) < cost.user_cycles(u)

    def test_single_task_stage_degenerates_exactly(self):
        """At antennas=1, layers=1 the chest stage has one task, so the
        fused kind must price identically to it."""
        cost = CostModel()
        u = user(10, 1, Modulation.QPSK)
        chest, _, _, _ = describe_user_tasks(u, antennas=1)
        assert len(chest) == 1
        batched = describe_user_tasks_batched(u, antennas=1)
        assert cost.task_cycles(batched[0]) == cost.task_cycles(chest[0])

    def test_all_batched_kinds_positive_and_known(self):
        cost = CostModel()
        for task in describe_user_tasks_batched(user(2, 1)):
            assert cost.task_cycles(task) > 0
