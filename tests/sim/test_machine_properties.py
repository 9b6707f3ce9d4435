"""Property-based tests of the machine simulator's core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.params import ALL_MODULATIONS
from repro.power.estimator import calibrate_from_cost_model
from repro.power.governor import IdlePolicy, NapIdlePolicy, NonapPolicy
from repro.sim.cost import CostModel, MachineSpec
from repro.sim.machine import MachineSimulator, SimConfig
from repro.sim.trace import CoreState
from repro.uplink.parameter_model import TraceParameterModel
from repro.uplink.user import UserParameters


def user_strategy():
    return st.builds(
        UserParameters,
        user_id=st.integers(0, 9),
        num_prb=st.integers(1, 40).map(lambda n: 2 * n),
        layers=st.integers(1, 4),
        modulation=st.sampled_from(list(ALL_MODULATIONS)),
    )


subframe_strategy = st.lists(user_strategy(), min_size=0, max_size=4)


@given(
    subframes=st.lists(subframe_strategy, min_size=1, max_size=4),
    policy_kind=st.integers(0, 2),
)
@settings(max_examples=25, deadline=None)
def test_property_all_work_executes_and_time_is_conserved(subframes, policy_kind):
    """For any workload and policy: every user's task graph executes in
    full, compute cycles equal the cost model's total, and every core's
    time is fully accounted across the four states."""
    cost = CostModel(machine=MachineSpec(num_cores=8, num_workers=6))
    if policy_kind == 0:
        policy = NonapPolicy(6)
    elif policy_kind == 1:
        policy = IdlePolicy(6)
    else:
        policy = NapIdlePolicy(6, calibrate_from_cost_model(cost))
    # Ensure the trace has at least one user so TraceParameterModel accepts it.
    model = TraceParameterModel(subframes)
    sim = MachineSimulator(cost, policy=policy, config=SimConfig(drain_margin_s=2.0))
    result = sim.run(model, num_subframes=len(subframes))

    expected_users = sum(len(s) for s in subframes)
    assert result.users_processed == expected_users

    expected_cycles = sum(
        cost.user_cycles(u) for s in subframes for u in s
    )
    measured = result.trace.total_cycles(CoreState.COMPUTE)
    assert measured == pytest.approx(expected_cycles, rel=1e-9)

    assert result.trace.check_conservation(atol_cycles=2.0)


@given(subframes=st.lists(subframe_strategy, min_size=2, max_size=4))
@settings(max_examples=15, deadline=None)
def test_property_policies_do_not_change_work(subframes):
    """NONAP and NAP+IDLE execute identical task counts and compute cycles."""
    cost = CostModel(machine=MachineSpec(num_cores=8, num_workers=6))
    model = TraceParameterModel(subframes)
    results = []
    for policy in (
        NonapPolicy(6),
        NapIdlePolicy(6, calibrate_from_cost_model(cost)),
    ):
        sim = MachineSimulator(cost, policy=policy, config=SimConfig(drain_margin_s=2.0))
        results.append(sim.run(model, num_subframes=len(subframes)))
    a, b = results
    assert a.tasks_executed == b.tasks_executed
    assert a.trace.total_cycles(CoreState.COMPUTE) == pytest.approx(
        b.trace.total_cycles(CoreState.COMPUTE), rel=1e-9
    )
