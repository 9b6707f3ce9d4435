"""Closed-form schedule bounds: an oracle for the simulator it cannot fake.

The other simulator checks compare it with literals captured from itself
(``TestFixedSeedCyclesPinned``, ``TestCompletionPathsPinned``,
``TestPowerStudyPinned``). These compare it with scheduling theory. Work
and span are read from the programs the simulator runs,
:meth:`~repro.sim.cost.CostModel.stage_program`:

* a user's span ``S_u`` sums, over its stages, the longest task of a
  ``par`` stage and the cycles of a ``ser`` stage; its work ``W_u`` is
  ``user_cycles``, the sum of every task;
* per subframe, ``S = max S_u``, ``W = Σ W_u`` and ``P = num_workers``.
  The slot-pipelined program has its own ``S``.

Latencies are compared in integer cycles, ``round(latency_s · clock_hz)``:
as floats, a latency that equals its floor can read 0.9999999999999999 of
it. Fault-free runs keep a drain margin of at least 1 s, so no subframe is
cut off by the horizon, and each run checks that.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.telemetry import IN_FLIGHT_BOUND
from repro.phy.params import ALL_MODULATIONS, Modulation
from repro.power.estimator import calibrate_from_cost_model
from repro.power.governor import make_policy
from repro.sim.cost import CostModel, MachineSpec
from repro.sim.machine import MachineSimulator, SimConfig
from repro.uplink.parameter_model import RandomizedParameterModel, TraceParameterModel
from repro.uplink.user import UserParameters

POLICIES = ["NONAP", "IDLE", "NAP", "NAP+IDLE"]
DRAIN = SimConfig(drain_margin_s=1.0)
#: The power study's draw (``repro power-study``, seed 1, 400 subframes).
STUDY_SEED, STUDY_SUBFRAMES = 1, 400


def span(program) -> int:
    return sum(max(c) if kind == "par" else c for kind, c, _ in program)


def bounds(cost, users, slot_pipelined=False) -> tuple[int, int]:
    """``(W, S)`` of one subframe's users."""
    programs = [cost.stage_program(u, slot_pipelined=slot_pipelined) for u in users]
    work = sum(cost.user_cycles(u) for u in users)
    return work, max((span(p) for p in programs), default=0)


def join_slack(cost, users, slot_pipelined=False) -> int:
    """ε, the delay the owner-runs-the-join rule can add to a lone subframe.

    When a ``par`` stage's last task ends, the next stage starts only on
    the user's own core. If that core is then running a task it stole from
    another user, the next stage waits for that task to end: at most the
    longest ``par`` task of any other user. A user hands off this way once
    per ``par`` stage of its program, so ε = (``par`` stages) × (that
    task), and a lone user's ε is 0.
    """
    programs = [cost.stage_program(u, slot_pipelined=slot_pipelined) for u in users]
    if len(programs) < 2:
        return 0
    handoffs = max(sum(kind == "par" for kind, _, _ in p) for p in programs)
    longest = max(max(c) for p in programs for kind, c, _ in p if kind == "par")
    return handoffs * longest


def latency_cycles(result) -> np.ndarray:
    return np.rint(result.subframe_latency_s * result.machine.clock_hz).astype(np.int64)


def run(cost, subframes, policy="NONAP", slot_pipelined=False):
    sim = MachineSimulator(
        cost,
        policy=make_policy(
            policy, cost.machine.num_workers, calibrate_from_cost_model(cost)
        ),
        config=DRAIN,
        slot_pipelined=slot_pipelined,
    )
    result = sim.run(TraceParameterModel(subframes), num_subframes=len(subframes))
    counts = result.ledger.counts()
    assert counts["ok"] == len(subframes), counts  # nothing cut off
    return result


def machine(workers: int) -> CostModel:
    return CostModel(machine=MachineSpec(num_cores=workers + 2, num_workers=workers))


def users_strategy(min_users, max_users):
    return st.lists(
        st.builds(
            UserParameters,
            user_id=st.integers(0, 9),
            num_prb=st.integers(1, 100).map(lambda n: 2 * n),
            layers=st.integers(1, 4),
            modulation=st.sampled_from(list(ALL_MODULATIONS)),
        ),
        min_size=min_users,
        max_size=max_users,
    )


# ------------------------------------------------------------ lower bound
def check_lower_bound(policy, workers, subframes, slot_pipelined):
    """No schedule beats the floor: latency ≥ max(S, W/P), every subframe."""
    cost = machine(workers)
    result = run(cost, subframes, policy, slot_pipelined)
    for index, (users, latency) in enumerate(zip(subframes, latency_cycles(result))):
        work, span_ = bounds(cost, users, slot_pipelined)
        assert latency >= span_, (index, latency, span_)
        assert latency * workers >= work, (index, latency, work, workers)


lower_bound_workloads = dict(
    workers=st.sampled_from([6, 62]),
    subframes=st.lists(users_strategy(0, 4), min_size=1, max_size=3),
    slot_pipelined=st.booleans(),
)


@pytest.mark.parametrize("policy", POLICIES)
@given(**lower_bound_workloads)
@settings(max_examples=6)
def test_latency_at_least_the_floor(policy, workers, subframes, slot_pipelined):
    check_lower_bound(policy, workers, subframes, slot_pipelined)


@pytest.mark.slow
@pytest.mark.parametrize("policy", POLICIES)
@given(**lower_bound_workloads)
@settings(max_examples=500)
def test_latency_at_least_the_floor_long(policy, workers, subframes, slot_pipelined):
    check_lower_bound(policy, workers, subframes, slot_pipelined)


# ------------------------------------------------------------ upper bound
def lone_subframe(cost, users, slot_pipelined=False) -> tuple[int, int, int, int]:
    """``(latency, W, S, ε)`` of ``users`` alone in the machine, NONAP."""
    assert len(users) <= cost.machine.num_workers
    result = run(cost, [users], slot_pipelined=slot_pipelined)
    work, span_ = bounds(cost, users, slot_pipelined)
    slack = join_slack(cost, users, slot_pipelined)
    return int(latency_cycles(result)[0]), work, span_, slack


def meets_graham_bound(cost, users, slot_pipelined=False) -> bool:
    """latency ≤ W/P + (1 − 1/P)(S + ε), in integer cycles.

    Graham (1969): a greedy list schedule of work W and span S on P cores
    ends by W/P + (1 − 1/P)·S. The simulator is greedy but for one rule,
    the owner runs a user's next stage after a ``par`` stage. So each
    instant of a lone subframe is of one of three kinds:

    * all P cores compute;
    * a core idles while a task of the critical chain runs (≤ S in all);
    * a core idles while the chain's next stage waits for its owner to
      finish a stolen task (≤ ε in all, :func:`join_slack`).

    No other kind exists: with at most P users every user is adopted at
    dispatch, and an idle core steals any ready task at once (a steal is
    priced in the task's overhead, not charged apart). At least one core
    computes in the last two kinds, which gives the bound.
    """
    latency, work, span_, slack = lone_subframe(cost, users, slot_pipelined)
    workers = cost.machine.num_workers
    return workers * latency <= work + (workers - 1) * (span_ + slack)


upper_bound_workloads = dict(
    workers=st.sampled_from([6, 62]),
    users=users_strategy(1, 6),
    slot_pipelined=st.booleans(),
)


@given(**upper_bound_workloads)
@settings(max_examples=25)
def test_lone_subframe_meets_graham_bound(workers, users, slot_pipelined):
    assert meets_graham_bound(machine(workers), users, slot_pipelined)


@pytest.mark.slow
@given(**upper_bound_workloads)
@settings(max_examples=1500)
def test_lone_subframe_meets_graham_bound_long(workers, users, slot_pipelined):
    assert meets_graham_bound(machine(workers), users, slot_pipelined)


@pytest.fixture(scope="module")
def study_draw():
    draw = RandomizedParameterModel(total_subframes=STUDY_SUBFRAMES, seed=STUDY_SEED)
    return list(draw.iter_subframes(STUDY_SUBFRAMES))


def test_every_study_subframe_alone_meets_graham_bound(study_draw):
    """The study's subframes, each alone in the 62-worker machine. One of
    them ends 3,290 cycles after W/P + S: within its ε."""
    cost = CostModel()
    workers = cost.machine.num_workers
    worst = -np.inf  # latency − (W/P + S), the bound without ε
    for users in filter(None, study_draw):
        latency, work, span_, slack = lone_subframe(cost, users)
        assert workers * latency <= work + (workers - 1) * (span_ + slack), users
        worst = max(worst, latency - work / workers - span_)
    print(f"\nlatency - (W/P + S) at most {worst:.0f} cycles")


# Mutations: the bound has to be able to fail.
LONE_SUBFRAMES = [
    [UserParameters(0, 2, 1, Modulation.QPSK)],
    [UserParameters(0, 40, 2, Modulation.QAM16)],
    [UserParameters(0, 100, 4, Modulation.QAM64)],
    [
        UserParameters(0, 24, 2, Modulation.QPSK),
        UserParameters(1, 8, 4, Modulation.QAM64),
    ],
]


def all_meet_graham_bound(cost) -> bool:
    return all(meets_graham_bound(cost, users) for users in LONE_SUBFRAMES)


def test_graham_bound_holds_unmutated():
    assert all_meet_graham_bound(CostModel())


def test_graham_bound_fails_when_a_steal_costs_cycles(monkeypatch):
    """A thief that pays one more task overhead per steal."""
    execute = MachineSimulator._execute_task
    cost = CostModel()

    def charged(self, core, job, cycles, t, stolen, serial=False):
        extra = cost.task_overhead_cycles if stolen else 0
        execute(self, core, job, cycles + extra, t, stolen, serial)

    monkeypatch.setattr(MachineSimulator, "_execute_task", charged)
    assert not all_meet_graham_bound(cost)


def test_graham_bound_fails_when_a_par_stage_runs_serially(monkeypatch):
    """Nothing is stolen: every ``par`` stage runs on its owner alone."""
    monkeypatch.setattr(MachineSimulator, "_victim", lambda self, exclude: None)
    assert not all_meet_graham_bound(CostModel())


# ------------------------------------------------------------ feasibility
def drawable_shapes():
    """Every user shape the study's draw can produce: even PRB counts."""
    return [
        UserParameters(0, prb, layers, modulation)
        for prb in range(2, 201, 2)
        for layers in range(1, 5)
        for modulation in ALL_MODULATIONS
    ]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the serial finalize tail alone is ~26 DELTA for "
    "the 200-PRB 4-layer 64-QAM user, so some users cannot finish within "
    "IN_FLIGHT_BOUND subframes on any schedule",
)
def test_every_drawable_shape_fits_the_in_flight_bound(study_draw):
    cost = CostModel()
    deadline = IN_FLIGHT_BOUND * cost.machine.subframe_period_cycles
    users = [u for sf in study_draw for u in sf]
    late_users = sum(span(cost.stage_program(u)) > deadline for u in users)
    late_shapes = [
        u for u in drawable_shapes() if span(cost.stage_program(u)) > deadline
    ]
    share = late_users / len(users)
    print(
        f"\nS_u > {IN_FLIGHT_BOUND}·DELTA: {late_users}/{len(users)} study users "
        f"({share:.1%}), {len(late_shapes)}/{len(drawable_shapes())} shapes"
    )
    assert not late_shapes, f"{share:.1%} of study users exceed the bound"


# ------------------------------------------------------- floor = misses
def test_nonap_misses_are_exactly_the_infeasible_subframes(study_draw):
    """With no horizon cut, NONAP misses the 3·DELTA deadline on exactly the
    subframes whose floor max(S, W/P) exceeds it: the scheduler adds no
    miss of its own."""
    cost = CostModel()
    workers = cost.machine.num_workers
    deadline = IN_FLIGHT_BOUND * cost.machine.subframe_period_cycles
    result = run(cost, study_draw)
    missed = set(np.flatnonzero(latency_cycles(result) > deadline).tolist())
    infeasible = set()
    for index, users in enumerate(study_draw):
        work, span_ = bounds(cost, users)
        if span_ > deadline or work > deadline * workers:
            infeasible.add(index)
    print(f"\nmisses {len(missed)} = infeasible {len(infeasible)}")
    assert missed == infeasible
