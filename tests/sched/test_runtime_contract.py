"""The runtime contract, once, over every backend.

``repro.sched.core`` states what it means to run a subframe to a terminal
state; a backend only supplies transport. So the contract is tested once:
each test below has one body, parametrized over ``serial``, ``vectorized``,
``threaded`` and ``multiprocess`` through :func:`make_runtime`. Backend
suites (``test_threaded.py``, ``test_multiprocess.py``,
``tests/faults/test_threaded_faults.py``) keep only what is about their
transport: stealing, shared memory, real process death.
"""

import os
import signal
import threading
import time
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.faults.accounting import TerminalState
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.watchdog import ResilienceConfig, RuntimeHung
from repro.obs.events import EventKind
from repro.obs.recorder import EventRecorder
from repro.obs.telemetry import TelemetryCollector
from repro.phy.params import Modulation
from repro.sched import Runtime, WorkerFailuresError, make_runtime, supervisor
from repro.uplink.parameter_model import RandomizedParameterModel
from repro.uplink.serial import process_subframe, process_subframe_serial
from repro.uplink.subframe import SubframeFactory, SubframeInput
from repro.uplink.user import UserParameters

BACKENDS = ["serial", "vectorized", "threaded", "multiprocess"]
NUM_SUBFRAMES = 5
SEED = 3


@pytest.fixture(scope="module")
def workload():
    model = RandomizedParameterModel(
        total_subframes=NUM_SUBFRAMES, seed=SEED, max_users=4
    )
    factory = SubframeFactory(seed=SEED)
    subframes = [
        factory.synthesize(model.uplink_parameters(i), i)
        for i in range(NUM_SUBFRAMES)
    ]
    return subframes, [process_subframe_serial(s) for s in subframes]


@pytest.fixture(scope="module")
def one_user():
    """Single-user subframes: a user, a shape group and a whole subframe
    are then the same work unit, so the retry budget reads alike on every
    transport."""
    factory = SubframeFactory(seed=SEED)
    user = UserParameters(0, 6, 1, Modulation.QPSK)
    return [factory.synthesize([user], index) for index in range(3)]


def plan_of(kind, count=1, subframe=0, param=0.0):
    return FaultPlan(
        specs=tuple(
            FaultSpec(kind=kind, subframe=subframe, target=-1, param=param)
            for _ in range(count)
        )
    )


def runtime_for(backend, workers=2, **kwargs) -> Runtime:
    kwargs.setdefault(
        "resilience", ResilienceConfig(max_retries=1, drain_timeout_s=60.0)
    )
    return make_runtime(backend, num_workers=workers, **kwargs)


def assert_fold_counts_the_run(fold, recorder, ledger):
    """The fold counts what the run did: one terminal per subframe the
    ledger resolved, one kernel observation per TASK_FINISH emitted."""
    ledger.check()
    resolved = {state: n for state, n in ledger.counts().items() if n}
    assert fold.terminal_counts == resolved
    finished = Counter(
        event.data.get("kernel") or "task"
        for event in recorder.filter(EventKind.TASK_FINISH)
    )
    kernels = {
        name.removeprefix("kernel_"): sketch.count
        for name, sketch in fold.sketches.items()
        if name.startswith("kernel_")
    }
    assert kernels and kernels == dict(finished)
    assert sum(kernels.values()) == fold.counters["tasks"]


class _Bug(BaseException):
    """Not an injected fault: what a real bug in a worker looks like."""


class _BuggyInjector:
    def check_worker_death(self, worker_id, subframe_index):
        raise _Bug("real bug in a worker")

    check_worker_hang = check_task_exception = check_worker_death


@pytest.mark.parametrize("backend", BACKENDS)
class TestRuntimeContract:
    def test_one_terminal_per_subframe_and_bit_exact(self, backend, workload):
        subframes, reference = workload
        recorder = EventRecorder()
        runtime = runtime_for(backend, observers=[recorder])
        results = runtime.run(subframes)
        ledger = runtime.ledger
        ledger.check()
        assert ledger.dispatched == NUM_SUBFRAMES
        assert sum(ledger.counts().values()) == NUM_SUBFRAMES
        assert ledger.late_resolutions == []
        for kind in ("dispatch", "subframe-terminal"):
            seen = sorted(
                e.data["subframe"] for e in recorder if e.kind.value == kind
            )
            assert seen == list(range(NUM_SUBFRAMES)), kind
        for result, expected in zip(results, reference):
            assert result.equals(expected)
            state = ledger.state_of(result.subframe_index)
            clean = all(u.crc_ok for u in expected.user_results)
            assert state is (
                TerminalState.OK if clean else TerminalState.CRC_FAILED
            )
        assert runtime.failures == [] and runtime.late_completions == 0

    def test_fold_matches_the_ledger(self, backend, workload):
        """The fold counts each subframe and each emitted task once."""
        subframes, _ = workload
        fold, recorder = TelemetryCollector(), EventRecorder()
        runtime = runtime_for(backend, observers=[fold, recorder])
        runtime.run(subframes)
        assert fold.counters["subframes"] == NUM_SUBFRAMES
        assert fold.sketch("subframe_latency").count == NUM_SUBFRAMES
        assert_fold_counts_the_run(fold, recorder, runtime.ledger)

    def test_on_terminal_observer_takes_delivery_of_results(
        self, backend, workload
    ):
        subframes, reference = workload

        class Taker:
            def __init__(self):
                self.delivered = []

            def __call__(self, event):
                pass

            def on_terminal(self, result, state, t_ns):
                self.delivered.append((result, state, t_ns))

        taker = Taker()
        runtime = runtime_for(backend, observers=[taker])
        assert runtime.run(subframes) == []  # delivered, so not kept as well
        delivered = sorted(taker.delivered, key=lambda d: d[0].subframe_index)
        assert len(delivered) == NUM_SUBFRAMES
        for (result, state, t_ns), expected in zip(delivered, reference):
            assert result.equals(expected) and t_ns > 0
            assert state is runtime.ledger.state_of(result.subframe_index)

    def test_results_sorted_by_index_users_in_slice_order(
        self, backend, workload
    ):
        subframes, _ = workload
        runtime = runtime_for(backend)
        runtime.start()
        try:
            for subframe in reversed(subframes):
                runtime.submit(subframe)
            results = runtime.collect_results()  # drains by itself
        finally:
            runtime.close()
        assert [r.subframe_index for r in results] == list(range(NUM_SUBFRAMES))
        for result, subframe in zip(results, subframes):
            assert [u.user_id for u in result.user_results] == [
                s.user.user_id for s in subframe.slices
            ]
        assert runtime.collect_results() == []  # and clears

    def test_empty_subframe_resolves_ok(self, backend):
        empty = SubframeInput(
            subframe_index=9,
            grid=np.zeros((2, 14, 12), dtype=np.complex128),
            slices=[],
        )
        runtime = runtime_for(backend)
        results = runtime.run([empty])
        assert len(results) == 1 and results[0].user_results == []
        assert runtime.ledger.state_of(9) is TerminalState.OK

    def test_lifecycle_errors(self, backend, one_user):
        runtime = runtime_for(backend)
        with pytest.raises(RuntimeError, match="not started"):
            runtime.submit(one_user[0])
        runtime.start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                runtime.start()
        finally:
            runtime.drain()
            runtime.close()
        runtime.close()  # idempotent

    def test_task_exception_retries_then_succeeds(self, backend, one_user):
        runtime = runtime_for(
            backend, faults=plan_of(FaultKind.TASK_EXCEPTION, count=1)
        )
        results = runtime.run(one_user[:1])
        assert (runtime.stats.retries, runtime.stats.aborted_users) == (1, 0)
        assert results[0].equals(process_subframe_serial(one_user[0]))
        assert results[0].aborted_user_ids == []
        assert runtime.ledger.state_of(0) is TerminalState.OK

    def test_task_exception_aborts_at_the_retry_budget(self, backend, one_user):
        recorder = EventRecorder()
        runtime = runtime_for(
            backend,
            faults=plan_of(FaultKind.TASK_EXCEPTION, count=2),
            observers=[recorder],
        )
        results = runtime.run(one_user[:1])
        # Budget of one retry: the first failure requeues the user, the
        # second aborts it — counted per user on every backend.
        assert (runtime.stats.retries, runtime.stats.aborted_users) == (1, 1)
        assert results[0].aborted_user_ids == [0]
        assert results[0].user_results == []
        assert runtime.ledger.state_of(0) is TerminalState.ABORTED
        runtime.ledger.check()
        counts = recorder.counts()
        assert counts["user-retry"] == 1 and counts["user-aborted"] == 1
        assert counts["fault"] == 2 and counts["subframe-terminal"] == 1

    def test_deadline_aborts_and_the_straggler_is_only_counted(
        self, backend, one_user
    ):
        hung = 100  # the hang arms here; lower indices warm the transport
        runtime = runtime_for(
            backend,
            workers=1,
            faults=plan_of(FaultKind.WORKER_HANG, subframe=hung, param=0.4),
            resilience=ResilienceConfig(
                max_retries=0,
                deadline_s=0.1,
                drain_timeout_s=60.0,
            ),
        )
        runtime.start()
        try:
            ledger = runtime.ledger
            # A cold multiprocess pool is still importing NumPy when its
            # first deadlines pass: go on until one subframe comes back.
            for index in range(hung):
                runtime.submit(replace(one_user[0], subframe_index=index))
                runtime.drain()
                if ledger.state_of(index) is TerminalState.OK:
                    break
            else:
                pytest.fail("the transport never came up")
            runtime.collect_results()
            runtime.submit(replace(one_user[0], subframe_index=hung))
            runtime.drain()
            assert ledger.state_of(hung) is TerminalState.ABORTED
            reason = ledger.summary()["resolved"][hung]["reason"]
            assert reason == "deadline expired"
            [result] = runtime.collect_results()
            assert result.aborted_user_ids == [0] and not result.user_results
            # The hung worker wakes up and finishes after the fact: that
            # is counted, and the subframe is not resolved a second time.
            give_up = time.monotonic() + 20.0
            while runtime.late_completions == 0 and time.monotonic() < give_up:
                runtime.poll(0.02)
            assert runtime.late_completions == 1
            assert ledger.state_of(hung) is TerminalState.ABORTED
            assert ledger.late_resolutions == []
            assert runtime.collect_results() == []
            ledger.check()
        finally:
            runtime.close()

    def test_abort_leaves_the_ledger_balanced(self, backend, one_user):
        runtime = runtime_for(
            backend, faults=plan_of(FaultKind.WORKER_HANG, param=0.5)
        )
        runtime.start()
        for subframe in one_user:
            runtime.submit(subframe)
        runtime.abort()
        ledger = runtime.ledger
        ledger.check()
        assert ledger.dispatched == len(one_user) and ledger.unresolved() == []
        assert ledger.counts()["aborted"] >= 1
        results = runtime.collect_results()
        assert [r.subframe_index for r in results] == [0, 1, 2]
        assert any(r.aborted_user_ids for r in results)

    def test_drain_raises_runtime_hung_on_timeout(self, backend, one_user):
        runtime = runtime_for(
            backend, faults=plan_of(FaultKind.WORKER_HANG, param=1.0)
        )
        runtime.start()
        try:
            runtime.submit(one_user[0])
            with pytest.raises(RuntimeHung, match="1 subframe"):
                runtime.drain(timeout=0.05)
        finally:
            runtime.abort()
        runtime.ledger.check()

    def test_drain_raises_on_a_fatal_worker_failure(
        self, backend, one_user, monkeypatch
    ):
        if backend == "multiprocess":
            # A real bug in a pool process is a process that is gone; with
            # no respawn budget left the pool fails stop.
            monkeypatch.setattr(supervisor, "MAX_RESPAWNS", 0)
            runtime = runtime_for(backend)
            runtime.start()
            for pid in runtime.process_ids:
                os.kill(pid, signal.SIGKILL)
        else:
            runtime = runtime_for(backend, faults=_BuggyInjector())
            runtime.start()
        try:
            for subframe in one_user:
                runtime.submit(subframe)
            with pytest.raises(WorkerFailuresError) as caught:
                runtime.drain(timeout=30.0)
        finally:
            runtime.abort()
        assert all(f.fatal and not f.injected for f in caught.value.failures)
        assert runtime.failures and all(f.fatal for f in runtime.failures)
        # Loud, and still accounted: nothing is left unresolved.
        runtime.ledger.check()
        assert runtime.ledger.counts()["aborted"] == len(one_user)


def test_the_fold_counts_the_run_across_a_sigkilled_worker(workload):
    """A killed worker never replies, so its subframe's stage events are
    replayed once, by the worker that retries it: the fold still counts
    every subframe once and every task the parent emitted."""
    subframes, reference = workload
    plan = FaultPlan(
        specs=(FaultSpec(kind=FaultKind.WORKER_DEATH, subframe=0, target=0),)
    )
    fold, recorder = TelemetryCollector(), EventRecorder()
    runtime = runtime_for("multiprocess", faults=plan, observers=[fold, recorder])
    results = runtime.run(subframes)
    assert runtime.stats.worker_deaths == 1 and runtime.stats.retries >= 1
    assert fold.counters["subframes"] == NUM_SUBFRAMES
    assert_fold_counts_the_run(fold, recorder, runtime.ledger)
    for result, expected in zip(results, reference):
        assert result.equals(expected)


# --------------------------------------------------------------------------
# Batching under backlog (the inline transport): whatever is queued when a
# poll runs goes into one call on ``vectorized``; everything the contract
# above promises stays per subframe.
INLINE = ["serial", "vectorized"]
BACKLOG = 6


class Calls:
    """An observer that records every event; the ``nap``-th TASK_START
    (0-based) sleeps ``sleep_s`` on the polling thread, inside the call."""

    def __init__(self, nap=None, sleep_s=0.0):
        self.events = []
        self.nap, self.sleep_s = nap, sleep_s
        self._starts = 0

    def __call__(self, event):
        self.events.append(event)
        if event.kind is EventKind.TASK_START:
            if self._starts == self.nap:
                time.sleep(self.sleep_s)
            self._starts += 1

    def calls(self):
        """The ``subframes`` count of every call started so far."""
        return [
            e.data["subframes"]
            for e in self.events
            if e.kind is EventKind.TASK_START
        ]

    def terminals(self):
        return sorted(
            e.data["subframe"]
            for e in self.events
            if e.kind is EventKind.SUBFRAME_TERMINAL
        )


@pytest.fixture(scope="module")
def flood():
    """1 + BACKLOG mMTC-sized subframes (two 1-layer x 24-subcarrier users
    each, ids repeating) and their serial results."""
    factory = SubframeFactory(seed=SEED)
    users = [UserParameters(u, 4, 1, Modulation.QPSK) for u in range(2)]
    subframes = [factory.synthesize(users, i) for i in range(1 + BACKLOG)]
    return subframes, [process_subframe_serial(s) for s in subframes]


def submit_behind_head(runtime, subframes):
    """Start, run the head alone in one poll, then queue the rest: a
    backlog the next poll finds."""
    runtime.start()
    runtime.submit(subframes[0])
    runtime.poll()
    assert runtime.outstanding == 0
    for subframe in subframes[1:]:
        runtime.submit(subframe)


@pytest.mark.parametrize("backend", INLINE)
class TestInlineBatching:
    def test_a_backlog_is_one_call_on_vectorized_only(self, backend, flood):
        subframes, reference = flood
        recorder = Calls()
        runtime = runtime_for(backend, observers=[recorder])
        submit_behind_head(runtime, subframes)
        try:
            results = runtime.collect_results()
        finally:
            runtime.close()
        # Per subframe, as ever: one terminal each, results by index.
        assert recorder.terminals() == list(range(1 + BACKLOG))
        runtime.ledger.check()
        assert runtime.ledger.counts()["ok"] == 1 + BACKLOG
        assert [r.subframe_index for r in results] == list(range(1 + BACKLOG))
        for result, expected in zip(results, reference):
            assert result.equals(expected)
        assert runtime.stats.tasks_executed == [1 + BACKLOG]
        assert runtime.stats.users_processed == [2 * (1 + BACKLOG)]
        # Per call: the head ran alone, the backlog behind it together.
        expected_calls = [1, BACKLOG] if backend == "vectorized" else [1] * (1 + BACKLOG)
        assert recorder.calls() == expected_calls
        finishes = [e for e in recorder.events if e.kind is EventKind.TASK_FINISH]
        assert [e.data["subframes"] for e in finishes] == expected_calls

    def test_the_polling_thread_runs_every_call(self, backend, flood):
        """No worker thread: the runtime starts none, and each call runs
        on the thread that polls."""
        subframes, reference = flood
        threads = []

        def processor(subframe):
            threads.append((threading.get_ident(), threading.active_count()))
            return process_subframe(subframe, backend=backend)

        before = threading.active_count()
        runtime = runtime_for(backend, processor=processor)
        results = runtime.run(subframes)
        assert threads == [(threading.get_ident(), before)] * len(subframes)
        for result, expected in zip(results, reference):
            assert result.equals(expected)

    @pytest.mark.parametrize("how", ["processor", "injector"])
    def test_a_processor_or_an_armed_injector_means_one_a_call(
        self, backend, flood, how
    ):
        subframes, reference = flood
        recorder = Calls()
        extra = (
            {"processor": partial(process_subframe, backend=backend)}
            if how == "processor"
            # Armed, never fires: hang / exception checks stay per index.
            else {"faults": plan_of(FaultKind.TASK_EXCEPTION, subframe=10_000)}
        )
        runtime = runtime_for(backend, observers=[recorder], **extra)
        submit_behind_head(runtime, subframes)
        try:
            results = runtime.collect_results()
        finally:
            runtime.close()
        assert recorder.calls() == [1] * (1 + BACKLOG)
        assert recorder.terminals() == list(range(1 + BACKLOG))
        for result, expected in zip(results, reference):
            assert result.equals(expected)

    def test_a_poisoned_member_retries_and_aborts_alone(self, backend, flood):
        subframes, reference = flood
        # 13 symbols instead of 14: stacking it with its neighbours raises
        # for the whole call, and it raises again whenever it runs alone.
        poisoned = replace(subframes[3], grid=subframes[3].grid[:, :13])
        batch = [*subframes[:3], poisoned, *subframes[4:]]
        recorder = Calls()
        runtime = runtime_for(backend, observers=[recorder])
        submit_behind_head(runtime, batch)
        try:
            results = runtime.collect_results()
        finally:
            runtime.close()
        ledger = runtime.ledger
        ledger.check()
        assert ledger.counts()["ok"] == BACKLOG and ledger.counts()["aborted"] == 1
        assert recorder.terminals() == list(range(1 + BACKLOG))
        # Only its own two users spent budget: one retry each, then abort.
        assert (runtime.stats.retries, runtime.stats.aborted_users) == (2, 2)
        for result, expected in zip(results, reference):
            if result.subframe_index == 3:
                assert result.aborted_user_ids == [0, 1]
                assert result.user_results == []
            else:
                assert result.equals(expected) and not result.aborted_user_ids
        aborted = [e for e in recorder.events if e.kind is EventKind.USER_ABORTED]
        assert {e.data["subframe"] for e in aborted} == {3}
        if backend == "vectorized":
            # The batch failed as one call, then every member ran alone
            # (the poisoned one twice).
            assert recorder.calls() == [1, BACKLOG] + [1] * (BACKLOG + 1)

    def test_members_aborted_mid_call_are_late_not_re_resolved(
        self, backend, flood
    ):
        subframes, _ = flood
        # The call behind the head (vectorized: subframes 1 and 2; serial:
        # subframe 1) sleeps past its members' deadline.
        recorder = Calls(nap=1, sleep_s=0.6)
        runtime = runtime_for(
            backend,
            observers=[recorder],
            resilience=ResilienceConfig(
                max_retries=0, deadline_s=0.5, drain_timeout_s=60.0,
            ),
        )
        submit_behind_head(runtime, subframes[:3])
        try:
            runtime.drain()
            ledger = runtime.ledger
            assert ledger.state_of(0) is TerminalState.OK
            assert ledger.state_of(1) is TerminalState.ABORTED
            assert ledger.state_of(2) is TerminalState.ABORTED
            # vectorized: subframes 1 and 2 finish together, both late;
            # serial: 1 finishes late, 2 was resolved before it ran (skipped).
            late = 4 if backend == "vectorized" else 2
            assert runtime.late_completions == late
            assert recorder.calls() == ([1, 2] if backend == "vectorized" else [1, 1])
            assert ledger.late_resolutions == []
            assert recorder.terminals() == [0, 1, 2]
            results = runtime.collect_results()
            assert [bool(r.user_results) for r in results] == [True, False, False]
            ledger.check()
        finally:
            runtime.close()

    def test_close_with_a_backlog(self, backend, flood):
        subframes, reference = flood
        recorder = Calls()
        runtime = runtime_for(backend, observers=[recorder])
        submit_behind_head(runtime, subframes)
        runtime.close()  # behind the backlog
        with pytest.raises(RuntimeError, match="not started"):
            runtime.submit(subframes[0])  # ... and nothing after it
        give_up = time.monotonic() + 20.0
        while runtime.ledger.unresolved() and time.monotonic() < give_up:
            runtime.poll(0.02)
        # What was queued before the close still reached its terminal.
        assert recorder.terminals() == list(range(1 + BACKLOG))
        runtime.ledger.check()
        for result, expected in zip(runtime.collect_results(), reference):
            assert result.equals(expected)

    def test_a_long_queue_is_cut_into_bounded_calls(self, backend):
        from repro.sched.inline import _BATCH_ELEMENTS

        factory = SubframeFactory(seed=SEED)
        # 2 layers x 300 subcarriers = 600 resource elements a subframe.
        wide = UserParameters(0, 50, 2, Modulation.QPSK)
        room = _BATCH_ELEMENTS // 600  # what fits behind a head
        assert room >= 2
        count = 2 * (1 + room) + 1
        subframes = [
            factory.from_pool([UserParameters(0, 4, 1, Modulation.QPSK)], 0),
            *(factory.from_pool([wide], 1 + i) for i in range(count)),
        ]
        recorder = Calls()
        runtime = runtime_for(backend, observers=[recorder])
        submit_behind_head(runtime, subframes)
        try:
            results = runtime.collect_results()
        finally:
            runtime.close()
        assert [r.subframe_index for r in results] == list(range(1 + count))
        assert recorder.terminals() == list(range(1 + count))
        if backend == "vectorized":
            # The head always goes in; the constant bounds what joins it,
            # however long the queue is.
            assert recorder.calls() == [1, 1 + room, 1 + room, 1]
        else:
            assert recorder.calls() == [1] * (1 + count)

    def test_submitting_while_the_worker_drains_loses_nothing(self, backend, flood):
        """Submits interleaved with polls, so calls start at every offset
        into the queue and at every queue length up to 6: each subframe
        still ends once, in exactly one call."""
        subframes, reference = flood
        count = 300
        recorder = Calls()
        runtime = runtime_for(backend, observers=[recorder])
        try:
            runtime.start()
            for index in range(count):
                runtime.submit(
                    replace(subframes[index % len(subframes)], subframe_index=index)
                )
                if index % 7 in (0, 3):
                    runtime.poll()
            results = runtime.collect_results()
        finally:
            runtime.close()
        assert recorder.terminals() == list(range(count))
        assert sum(recorder.calls()) == count  # every subframe in exactly one call
        if backend == "vectorized":
            assert set(recorder.calls()) > {1}
        runtime.ledger.check()
        assert runtime.ledger.counts()["ok"] == count
        assert [r.subframe_index for r in results] == list(range(count))
        for result in results:
            expected = reference[result.subframe_index % len(subframes)]
            assert replace(result, subframe_index=expected.subframe_index).equals(
                expected
            )
