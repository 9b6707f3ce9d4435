"""MultiprocessRuntime: bit-exactness, SHM lifecycle, real-death faults.

Tier-1 coverage of the spawn-based pool. Each test spawns its own small
pool (2 workers, a handful of subframes) because fault plans differ per
test; the exhaustive cross-backend scenario matrix lives in the slow-tier
differential suite (``tests/differential/test_backends.py``), and what
every backend owes alike (one terminal per subframe, empty subframes,
retry budget, deadlines, ``abort``/``drain``) in
``tests/sched/test_runtime_contract.py``.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.faults.accounting import TerminalState
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.watchdog import ResilienceConfig
from repro.obs.recorder import EventRecorder
from repro.phy.params import CellConfig, Modulation
from repro.sched import multiprocess, supervisor
from repro.sched.multiprocess import MultiprocessRuntime
from repro.uplink.parameter_model import RandomizedParameterModel
from repro.uplink.serial import process_subframe_serial
from repro.uplink.subframe import SubframeFactory
from repro.uplink.tasks import KERNEL_KINDS
from repro.uplink.user import UserParameters
from repro.uplink.vectorized import process_subframes

NUM_SUBFRAMES = 4
SEED = 3


@pytest.fixture(scope="module")
def workload():
    model = RandomizedParameterModel(
        total_subframes=NUM_SUBFRAMES, seed=SEED, max_users=3
    )
    factory = SubframeFactory(seed=SEED)
    subframes = [
        factory.synthesize(model.uplink_parameters(i), i)
        for i in range(NUM_SUBFRAMES)
    ]
    reference = [process_subframe_serial(s) for s in subframes]
    return subframes, reference


def assert_uint8_payloads(result):
    """Decoded bits come back from the slab or the pipe as the worker
    decided them: one ``uint8`` a bit, as every backend hands them out."""
    for user in result.user_results:
        assert user.payload.dtype == np.uint8


def test_bit_exact_vs_serial_with_process_lanes(workload):
    subframes, reference = workload
    recorder = EventRecorder()
    runtime = MultiprocessRuntime(num_workers=2, observers=[recorder])
    results = runtime.run(subframes)
    assert len(results) == NUM_SUBFRAMES
    assert runtime.stats.slab_overflows == 0
    for result, expected in zip(results, reference):
        assert result.equals(expected), f"sf{result.subframe_index} differs"
        assert_uint8_payloads(result)
    assert runtime.ledger.ok
    assert runtime.ledger.counts()["ok"] == NUM_SUBFRAMES
    assert sum(runtime.stats.users_processed) == sum(
        len(s.slices) for s in subframes
    )
    # The event stream carries the process_id dimension: at least the
    # parent plus one worker pid must appear.
    pids = {e.data.get("process_id") for e in recorder.events if e.data}
    pids.discard(None)
    assert len(pids) >= 2
    # Stage spans are attributed to worker pids, not the parent's, and
    # tagged with the canonical kernel kinds a Profiler breaks down by.
    worker_pids = set(runtime.process_ids)
    task_starts = [e for e in recorder.events if e.kind.value == "task-start"]
    kernel_pids = {e.data.get("process_id") for e in task_starts}
    assert kernel_pids and kernel_pids <= worker_pids
    assert {e.data.get("kernel") for e in task_starts} == set(KERNEL_KINDS)


def test_worker_death_is_reclaimed_and_retried(workload):
    subframes, reference = workload
    plan = FaultPlan(
        specs=(
            FaultSpec(
                kind=FaultKind.WORKER_DEATH, subframe=0, target=0, seed=0
            ),
        ),
        seed=0,
    )
    recorder = EventRecorder()
    runtime = MultiprocessRuntime(
        num_workers=2,
        faults=plan,
        observers=[recorder],
        resilience=ResilienceConfig(max_retries=2, drain_timeout_s=60.0),
    )
    results = runtime.run(subframes)
    # The SIGKILLed worker's subframe is requeued onto the survivor and
    # still completes bit-exact.
    assert runtime.ledger.ok and runtime.ledger.counts()["ok"] == NUM_SUBFRAMES
    for result, expected in zip(results, reference):
        assert result.equals(expected)
    assert runtime.stats.worker_deaths == 1
    assert runtime.stats.retries > 0
    assert any(f.injected for f in runtime.failures)
    kinds = {e.kind.value for e in recorder.events}
    assert "fault" in kinds and "user-retry" in kinds


def test_a_multi_shape_subframe_is_one_task_and_retries_whole():
    """The work unit is the subframe: three shapes travel as one task and
    one reply, equal to the in-process call; a worker death requeues the
    whole subframe once, each of its users charged once."""
    users = [
        UserParameters(0, 2, 1, Modulation.QPSK),
        UserParameters(1, 6, 2, Modulation.QAM16),
        UserParameters(2, 4, 4, Modulation.QAM64),
        UserParameters(3, 6, 2, Modulation.QAM16),
    ]
    factory = SubframeFactory(seed=SEED)
    subframes = [factory.synthesize(users, index) for index in range(2)]
    plan = FaultPlan(
        specs=(
            FaultSpec(kind=FaultKind.WORKER_DEATH, subframe=0, target=0, seed=0),
        ),
        seed=0,
    )
    recorder = EventRecorder()
    runtime = MultiprocessRuntime(
        num_workers=2,
        faults=plan,
        observers=[recorder],
        resilience=ResilienceConfig(max_retries=2, drain_timeout_s=60.0),
    )
    results = runtime.run(subframes)

    def batches(kind):
        """Per subframe, the user ids of each dispatch (USER_START) or reply
        (USER_FINISH): one batch shares a timestamp and a worker lane."""
        found = {}
        for event in recorder.events:
            if event.kind.value == kind:
                key = (event.data["subframe"], event.t, event.core)
                found.setdefault(key, []).append(event.data["user"])
        return sorted((key[0], sorted(ids)) for key, ids in found.items())

    everyone = [user.user_id for user in users]
    # Subframe 0 went to worker 0, which died holding it, and then whole to
    # the survivor; subframe 1 was one dispatch. One reply each.
    assert batches("user-start") == [(0, everyone), (0, everyone), (1, everyone)]
    assert batches("user-finish") == [(0, everyone), (1, everyone)]
    assert runtime.stats.worker_deaths == 1
    assert runtime.stats.retries == len(users)
    retried = [
        e.data["user"] for e in recorder.events if e.kind.value == "user-retry"
    ]
    assert sorted(retried) == everyone
    assert runtime.ledger.ok and runtime.ledger.counts()["ok"] == 2
    for result, expected in zip(
        results, process_subframes(subframes, backend="vectorized")
    ):
        assert result.equals(expected)


def test_task_exception_without_retries_aborts_one_subframe(workload):
    subframes, _ = workload
    plan = FaultPlan(
        specs=(
            FaultSpec(
                kind=FaultKind.TASK_EXCEPTION, subframe=1, target=-1, seed=0
            ),
        ),
        seed=0,
    )
    runtime = MultiprocessRuntime(
        num_workers=2,
        faults=plan,
        resilience=ResilienceConfig(max_retries=0, drain_timeout_s=60.0),
    )
    results = runtime.run(subframes)
    counts = runtime.ledger.counts()
    assert runtime.ledger.ok
    assert counts["aborted"] == 1 and counts["ok"] == NUM_SUBFRAMES - 1
    aborted = [r for r in results if r.aborted_user_ids]
    assert len(aborted) == 1 and aborted[0].subframe_index == 1
    assert runtime.stats.aborted_users == len(aborted[0].aborted_user_ids)


def test_all_workers_dead_aborts_everything(workload, monkeypatch):
    subframes, _ = workload
    # No respawn budget: the first death trips crash-loop detection.
    monkeypatch.setattr(supervisor, "MAX_RESPAWNS", 0)
    plan = FaultPlan(
        specs=tuple(
            FaultSpec(kind=FaultKind.WORKER_DEATH, subframe=0, target=w, seed=0)
            for w in range(2)
        ),
        seed=0,
    )
    runtime = MultiprocessRuntime(
        num_workers=2,
        faults=plan,
        resilience=ResilienceConfig(max_retries=5, drain_timeout_s=60.0),
    )
    runtime.run(subframes)
    # Both pool processes SIGKILLed and none respawned: the drain loop must
    # still terminate with every dispatched subframe accounted as aborted.
    counts = runtime.ledger.counts()
    assert runtime.ledger.ok and counts["aborted"] == NUM_SUBFRAMES
    assert runtime.stats.worker_deaths == 2


def test_tiny_output_slab_falls_back_to_inline_results(workload, monkeypatch):
    subframes, reference = workload
    monkeypatch.setattr(multiprocess, "DEFAULT_SLAB_BYTES", 4096)
    runtime = MultiprocessRuntime(num_workers=2)
    results = runtime.run(subframes)
    # Every payload overflows a 4 KiB slab; results ride the
    # pipe inline instead, still bit-exact, and the fallback is counted.
    assert runtime.stats.slab_overflows > 0
    for result, expected in zip(results, reference):
        assert result.equals(expected)
        assert_uint8_payloads(result)


# ------------------------------------------------------ per-slot grid slab
def shm_names() -> set[str]:
    """Python shared-memory segments on this host (Linux names them psm_*)."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("needs /dev/shm to see segment names")
    return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}


def shm_sizes(names) -> list[int]:
    return sorted(os.path.getsize(os.path.join("/dev/shm", n)) for n in names)


def same_bits(result, expected) -> bool:
    """``equals`` (under whatever index the subframe was resubmitted) plus
    the LLRs, which travel through the slab too."""
    expected = replace(expected, subframe_index=result.subframe_index)
    return result.equals(expected) and all(
        np.array_equal(got.llrs, want.llrs)
        for got, want in zip(result.user_results, expected.user_results)
    )


def test_steady_state_recycles_grid_segments(workload):
    """The same segments carry every grid: each worker slot creates its
    grid slab and its result slab at spawn, windows of work create and
    unlink nothing, and ``close()`` unlinks them all."""
    subframes, reference = workload
    before = shm_names()
    runtime = MultiprocessRuntime(num_workers=2)
    runtime.start()
    try:
        seen = shm_names() - before
        assert shm_sizes(seen) == sorted(
            [multiprocess._GRID_SLAB_BYTES, multiprocess.DEFAULT_SLAB_BYTES] * 2
        )
        for window in range(4):
            for subframe in subframes:
                index = window * NUM_SUBFRAMES + subframe.subframe_index
                runtime.submit(replace(subframe, subframe_index=index))
            runtime.drain()
            results = runtime.collect_results()
            assert all(same_bits(r, e) for r, e in zip(results, reference))
            assert shm_names() - before == seen, "a segment came or went"
        assert runtime.stats.slab_overflows == 0
    finally:
        runtime.close()
    assert shm_names() == before


def test_start_returns_with_the_workers_ready(workload):
    """``start()`` waits for the children's imports (0.3-0.6 s here), so
    the very first subframe (~10 ms) meets a deadline shorter than them."""
    subframes, reference = workload
    runtime = MultiprocessRuntime(
        num_workers=2,
        resilience=ResilienceConfig(
            max_retries=0, deadline_s=0.2, drain_timeout_s=60.0,
        ),
    )
    [result] = runtime.run(subframes[:1])
    assert runtime.ledger.state_of(0) is TerminalState.OK
    assert same_bits(result, reference[0])


def test_a_stragglers_segment_is_never_recycled(workload):
    """A hung worker still reads the grid of the subframe its deadline gave
    up on: it is sent nothing while it holds that task, so its grid slab is
    not reused for a later grid (the other worker runs every later
    subframe), and the straggler finishes late on valid memory."""
    subframes, reference = workload
    hung = 2
    plan = FaultPlan(
        specs=(FaultSpec(kind=FaultKind.WORKER_HANG, subframe=hung, param=1.5),)
    )
    runtime = MultiprocessRuntime(
        num_workers=2,
        faults=plan,
        resilience=ResilienceConfig(
            max_retries=0, deadline_s=0.5, drain_timeout_s=60.0,
        ),
    )
    runtime.start()
    try:
        for subframe in subframes[:hung]:  # warm both workers' caches
            runtime.submit(subframe)
        runtime.drain()
        warm = shm_names()
        runtime.submit(subframes[hung])
        runtime.drain()
        assert runtime.ledger.state_of(hung) is TerminalState.ABORTED
        assert runtime.late_completions == 0
        for i in range(4):
            runtime.submit(replace(subframes[i % hung], subframe_index=10 + i))
        runtime.drain()
        for i, result in enumerate(runtime.collect_results()[-4:]):
            assert same_bits(result, reference[i % hung])
        # Still asleep: exactly one grid slab holds the aborted grid.
        assert runtime.late_completions == 0
        assert shm_names() == warm
        grid = np.ascontiguousarray(subframes[hung].grid).tobytes()
        holders = []
        for name in warm:
            with open(os.path.join("/dev/shm", name), "rb") as segment:
                if segment.read(len(grid)) == grid:
                    holders.append(name)
        assert len(holders) == 1
        users = len(subframes[hung].slices)
        give_up = time.monotonic() + 20.0
        while runtime.late_completions < users and time.monotonic() < give_up:
            runtime.poll(0.02)
        assert runtime.late_completions == users
    finally:
        runtime.close()


def test_a_recycled_segment_can_carry_a_grid_of_another_shape():
    """The grid slab is reused whatever the shape: the worker views it in
    the shape the task names, so a 2-antenna grid follows a 4-antenna one
    through the same slab."""
    users = [UserParameters(0, 4, 2, Modulation.QAM16)]
    wide = SubframeFactory(seed=SEED).synthesize(users, 0)
    narrow = SubframeFactory(
        cell=CellConfig(num_rx_antennas=2), seed=SEED
    ).synthesize(users, 1)
    assert narrow.grid.nbytes < wide.grid.nbytes
    sequence = [wide, narrow, replace(wide, subframe_index=2)]
    runtime = MultiprocessRuntime(num_workers=1)
    runtime.start()
    try:
        names = shm_names()
        for subframe in sequence:
            runtime.submit(subframe)
            runtime.drain()
            assert shm_names() == names  # one grid slab, one result slab
        for result, subframe in zip(runtime.collect_results(), sequence):
            assert same_bits(result, process_subframe_serial(subframe))
        assert runtime.stats.slab_overflows == 0
    finally:
        runtime.close()


def test_a_grid_larger_than_the_slab_travels_inline():
    """An 8-antenna grid does not fit the default cell's grid slab: it
    rides the pipe inside its task, counted once, still bit-exact."""
    users = [UserParameters(0, 4, 2, Modulation.QAM16)]
    big = SubframeFactory(
        cell=CellConfig(num_rx_antennas=8), seed=SEED
    ).synthesize(users, 0)
    assert big.grid.nbytes > multiprocess._GRID_SLAB_BYTES
    runtime = MultiprocessRuntime(num_workers=1)
    [result] = runtime.run([big])
    assert runtime.stats.slab_overflows == 1
    assert same_bits(result, process_subframe_serial(big))


# ------------------------------------------------------ result-slab extents
def test_one_worker_pipeline_keeps_every_result_intact(workload):
    """The worker is sent subframe k+1 before k is copied out of the slab:
    k's results (LLRs included) must still be serial's after k+1 and k+2
    completed behind it."""
    subframes, reference = workload
    backlog = [
        replace(subframes[i % NUM_SUBFRAMES], subframe_index=i) for i in range(12)
    ]
    runtime = MultiprocessRuntime(num_workers=1)
    results = runtime.run(backlog)
    assert runtime.stats.slab_overflows == 0
    for i, result in enumerate(results):
        assert same_bits(result, reference[i % NUM_SUBFRAMES]), f"sf{i} differs"


def test_results_that_do_not_fit_beside_their_predecessor_overflow(monkeypatch):
    """A subframe's results may not overwrite the previous subframe's: when
    the slab holds one but not two, the second rides the pipe, counted."""
    users = [UserParameters(0, 8, 2, Modulation.QAM16)]
    one = SubframeFactory(seed=SEED).synthesize(users, 0)
    expected = process_subframe_serial(one)
    need = sum(
        -(-array.nbytes // 16) * 16
        for user in expected.user_results
        for array in (user.payload, user.llrs)
    )
    backlog = [replace(one, subframe_index=i) for i in range(3)]
    for slab_bytes, overflows in ((need * 3 // 2, True), (need * 2 + 4096, False)):
        monkeypatch.setattr(multiprocess, "DEFAULT_SLAB_BYTES", slab_bytes)
        runtime = MultiprocessRuntime(num_workers=1)
        results = runtime.run(backlog)
        assert bool(runtime.stats.slab_overflows) is overflows
        assert all(same_bits(result, expected) for result in results)
