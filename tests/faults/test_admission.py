"""AdmissionController: Eq. 3-4 estimate vs DELTA budget, tail shedding."""

import pytest

from repro.faults.admission import AdmissionController
from repro.power.estimator import calibrate_from_cost_model
from repro.sim.cost import CostModel
from repro.uplink.user import Modulation, UserParameters


def make_controller(max_activity=0.9):
    estimator = calibrate_from_cost_model(CostModel())
    return AdmissionController(estimator, max_activity=max_activity)


def make_users(count=4):
    mods = [Modulation.QPSK, Modulation.QAM16, Modulation.QAM64]
    return [
        UserParameters(uid, 8 + 4 * uid, 1 + uid % 4, mods[uid % 3])
        for uid in range(count)
    ]


class TestAdmit:
    def test_under_budget_admits_everyone(self):
        controller = make_controller()
        users = make_users()
        decision = controller.admit(users)
        assert decision.admitted == tuple(users)
        assert decision.shed == ()
        assert not decision.shed_any
        assert decision.estimated_activity <= decision.budget_activity
        assert controller.total_shed_users == 0
        assert controller.total_shed_subframes == 0

    def test_overload_sheds_from_the_tail(self):
        controller = make_controller()
        users = make_users(4)
        decision = controller.admit(users, load_factor=100.0)
        assert decision.shed_any
        # Tail-first: admitted is a prefix, shed is the complementary suffix.
        kept = len(decision.admitted)
        assert decision.admitted == tuple(users[:kept])
        assert decision.shed == tuple(users[kept:])
        assert decision.estimated_activity <= decision.budget_activity
        assert controller.total_shed_users == len(decision.shed)
        assert controller.total_shed_subframes == 1

    def test_extreme_overload_sheds_everyone(self):
        controller = make_controller()
        decision = controller.admit(make_users(3), load_factor=1e9)
        assert decision.admitted == ()
        assert len(decision.shed) == 3
        assert decision.shed_user_ids == (0, 1, 2)

    def test_per_call_load_factor_overrides_default(self):
        controller = make_controller()
        users = make_users(4)
        assert not controller.admit(users).shed_any  # the default is 1.0
        assert controller.admit(users, load_factor=100.0).shed_any

    def test_decision_is_deterministic(self):
        users = make_users(5)
        first = make_controller().admit(users, load_factor=50.0)
        second = make_controller().admit(users, load_factor=50.0)
        assert first.admitted == second.admitted
        assert first.shed == second.shed
        assert first.estimated_activity == second.estimated_activity

    def test_empty_subframe(self):
        decision = make_controller().admit([])
        assert decision.admitted == ()
        assert decision.shed == ()


class TestValidation:
    def test_rejects_nonpositive_budget(self):
        estimator = calibrate_from_cost_model(CostModel())
        with pytest.raises(ValueError):
            AdmissionController(estimator, max_activity=0.0)

    def test_rejects_nonpositive_load_factor(self):
        with pytest.raises(ValueError, match="load_factor"):
            make_controller().admit(make_users(2), load_factor=-1.0)

    def test_rejects_nonpositive_per_call_load_factor(self):
        # Regression: admit(load_factor=0) once skipped the positivity
        # check, produced a zero cost estimate and admitted everything.
        controller = make_controller()
        users = make_users(2)
        with pytest.raises(ValueError, match="load_factor"):
            controller.admit(users, load_factor=0.0)
        with pytest.raises(ValueError, match="load_factor"):
            controller.admit(users, load_factor=-3.0)
        assert controller.admit(users).admitted == tuple(users)
