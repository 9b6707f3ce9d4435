"""The threaded runtime runs the simulator's per-user stage program.

What the threaded backend has that no other backend has is the paper's
Fig. 5 task graph executed task by task on real threads: each user's
chest fan-out, the combiner join, the symbol fan-out and the finalize
join, with work stealing between workers (Section IV-C). The timing
simulator models the same graph in cycles. This differential pins the
two together from their event streams alone, for the same user lists:

* per subframe, the multiset of ``(kernel, serial)`` over ``task-start``
  events is equal on both backends;
* per user on the threaded runtime, each join starts only after every
  task of the stage before it finished, the symbol fan-out starts only
  after the combiner finished, and both joins run on the core that
  adopted the user (the simulator's owner-runs-the-join rule).
"""

import os
import sys
from collections import Counter

import pytest

from repro.obs import EventKind, EventRecorder
from repro.phy import Modulation
from repro.phy.channel import ChannelModel
from repro.sched import ThreadedRuntime
from repro.sim.cost import CostModel, MachineSpec
from repro.sim.machine import MachineSimulator, SimConfig
from repro.uplink import SubframeFactory, UserParameters
from repro.uplink.parameter_model import TraceParameterModel
from repro.uplink.tasks import KERNEL_KINDS, UserJob

QPSK, QAM16, QAM64 = Modulation.QPSK, Modulation.QAM16, Modulation.QAM64

#: name -> (subframe user lists, subframes run). Layers 1-4, all three
#: modulations, 2-100 PRBs, and a 4-layer 64-QAM user in every shape
#: but the first, which is the two-user reference below.
SHAPES = {
    "two-users": ([[UserParameters(0, 8, 1, QPSK),
                    UserParameters(1, 16, 2, QAM16)]], 2),
    "layer-spread": ([[UserParameters(0, 24, 3, QAM64),
                       UserParameters(1, 50, 4, QAM64),
                       UserParameters(2, 4, 1, QPSK),
                       UserParameters(3, 12, 2, QAM16)]], 2),
    "alternating": ([[UserParameters(0, 100, 4, QAM64)],
                     [UserParameters(0, 2, 1, QPSK),
                      UserParameters(1, 10, 2, QAM16),
                      UserParameters(2, 6, 3, QAM64),
                      UserParameters(3, 8, 4, QPSK)]], 3),
}


def run_threaded(trace, subframes: int, workers: int = 3) -> tuple[list, dict]:
    """(events, ledger counts) of a threaded run."""
    model = TraceParameterModel(trace)
    # A flat 60 dB channel, so every user decodes and every ledger is ok:
    # what is compared is the task graph, not the decode. (At the
    # factory's default 35 dB / 3 taps a 3- or 4-layer 64-QAM user fails
    # its CRC, and even at 50 dB flat one 100-PRB 4x4 realization does.)
    factory = SubframeFactory(
        seed=0, channel=ChannelModel(num_rx_antennas=4, num_taps=1, snr_db=60.0)
    )
    inputs = [
        factory.synthesize(model.uplink_parameters(i), i)
        for i in range(subframes)
    ]
    recorder = EventRecorder()
    runtime = ThreadedRuntime(
        num_workers=workers, steal_seed=0, observers=[recorder]
    )
    runtime.run(inputs)
    return recorder.events, runtime.ledger.counts()


def run_simulator(trace, subframes: int) -> tuple[list, dict]:
    """(events, ledger counts) of an 8-worker simulator run."""
    recorder = EventRecorder()
    sim = MachineSimulator(
        CostModel(machine=MachineSpec(num_cores=10, num_workers=8)),
        config=SimConfig(drain_margin_s=0.2),
        observers=[recorder],
    )
    result = sim.run(TraceParameterModel(trace), num_subframes=subframes)
    return recorder.events, result.ledger.counts()


def stage_programs(events) -> dict[int, Counter]:
    """Per subframe, the ``(kernel, serial)`` multiset of started tasks."""
    programs: dict[int, Counter] = {}
    for event in events:
        if event.kind is EventKind.TASK_START:
            data = event.data
            programs.setdefault(data["subframe"], Counter())[
                (data["kernel"], data.get("serial", False))
            ] += 1
    return programs


def program_mismatches(threaded_events, sim_events) -> list[str]:
    """One line per subframe whose stage programs differ."""
    threaded = stage_programs(threaded_events)
    sim = stage_programs(sim_events)
    return [
        f"subframe {index}: threaded {dict(threaded.get(index, {}))} "
        f"vs simulator {dict(sim.get(index, {}))}"
        for index in sorted(threaded.keys() | sim.keys())
        if threaded.get(index) != sim.get(index)
    ]


def order_violations(events) -> list[str]:
    """Per (subframe, user): joins after their stage, on the user's core."""
    owners: dict[tuple, int] = {}
    starts: dict[tuple, list] = {}
    finishes: dict[tuple, list] = {}
    for event in events:
        data = event.data or {}
        user = (data.get("subframe"), data.get("user"))
        if event.kind is EventKind.USER_START:
            owners[user] = event.core
        elif event.kind is EventKind.TASK_START:
            starts.setdefault(user + (data["kernel"],), []).append(event)
        elif event.kind is EventKind.TASK_FINISH:
            finishes.setdefault(user + (data["kernel"],), []).append(event)
    violations = []
    for user, core in sorted(owners.items()):
        missing = [k for k in KERNEL_KINDS if user + (k,) not in finishes]
        if missing:
            violations.append(f"{user}: no finished {missing} task")
            continue

        def first_start(kernel):
            return min(e.t for e in starts[user + (kernel,)])

        def last_finish(kernel):
            return max(e.t for e in finishes[user + (kernel,)])

        for before, after in (("chest", "combiner"), ("combiner", "symbol"),
                              ("symbol", "finalize")):
            if last_finish(before) > first_start(after):
                violations.append(f"{user}: {after} starts before {before} ends")
        for join in ("combiner", "finalize"):
            join_cores = [e.core for e in starts[user + (join,)]]
            if join_cores != [core]:
                violations.append(f"{user}: {join} on {join_cores}, user on {core}")
    return violations


@pytest.fixture(scope="module", params=list(SHAPES), ids=list(SHAPES))
def streams(request):
    trace, subframes = SHAPES[request.param]
    return run_threaded(trace, subframes), run_simulator(trace, subframes)


def test_both_runs_are_fault_free_and_ok(streams):
    for _, counts in streams:
        assert counts["ok"] == sum(counts.values()) > 0


def test_same_stage_program_per_subframe(streams):
    (threaded, _), (sim, _) = streams
    assert program_mismatches(threaded, sim) == []


def test_joins_follow_their_stage_on_the_users_core(streams):
    (threaded, _), _ = streams
    assert order_violations(threaded) == []


def test_join_order_holds_under_preemption():
    """More workers than cores and a 1 us switch interval: no task is
    lost or run twice, and every join still follows its stage."""
    trace, subframes = SHAPES["layer-spread"][0], 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded, counts = run_threaded(
            trace, subframes, workers=(os.cpu_count() or 1) + 2
        )
    finally:
        sys.setswitchinterval(interval)
    assert counts["ok"] == subframes
    assert order_violations(threaded) == []
    assert program_mismatches(threaded, run_simulator(trace, subframes)[0]) == []


def test_reference_shape_program():
    """Two users (1 and 2 layers): 4*3 chest, 12*3 symbol, 2 of each join."""
    sim, _ = run_simulator(*SHAPES["two-users"])
    expected = Counter({("chest", False): 12, ("symbol", False): 36,
                        ("combiner", True): 2, ("finalize", True): 2})
    assert stage_programs(sim) == {0: expected, 1: expected}


def test_a_dropped_data_task_breaks_the_comparison(monkeypatch):
    """The differential is not vacuous: a runtime that loses one symbol
    task per user no longer runs the simulator's program."""
    trace, subframes = SHAPES["two-users"]
    data_tasks = UserJob.data_tasks
    monkeypatch.setattr(UserJob, "data_tasks", lambda job: data_tasks(job)[:-1])
    threaded, _ = run_threaded(trace, subframes)
    sim, _ = run_simulator(trace, subframes)
    assert len(program_mismatches(threaded, sim)) == subframes
    assert {
        index: program[("symbol", False)]
        for index, program in stage_programs(threaded).items()
    } == {index: 36 - 2 for index in range(subframes)}
