"""``serial`` / ``vectorized`` as a transport: no thread, whole subframes.

The single-thread functional backends need no scheduler, but they still owe
the runtime contract (:mod:`repro.sched.core`): exactly one terminal per
subframe, bounded retry, deadlines. :class:`InlineRuntime` honours it with
no thread: each :meth:`poll` runs one ``process_subframes(backend=...)``
call (or the caller's ``processor``) on the polling thread — ``drain``'s,
or the serve loop's, which a worker thread would only fight for the GIL.

**Batching under backlog.** A call takes the oldest queued subframe and
what is queued behind it when the poll runs, up to :data:`_BATCH_ELEMENTS`
of work; results are bit-exact per subframe whatever shares the call, and
terminals, the ledger, the retry budget and ``stats`` stay per subframe.
A call that raises is split, every member re-run alone. ``serial``, a
``processor`` and an armed injector keep one subframe a call.

**One poll, one call.** A poll expires deadlines, runs at most one call,
expires deadlines again, then completes the members in submit order (one
whose deadline passed during the call ends aborted, its result counted
late). An injected ``WORKER_HANG`` parks the call until the hang ends or
:meth:`close`; polls meanwhile wait at most ``timeout``. A
``BaseException`` out of a call is a real bug: a fatal
:class:`WorkerFailure`, all outstanding work aborted, and then
``KeyboardInterrupt`` / ``SystemExit`` propagate.
"""

from __future__ import annotations

import time
from collections import deque
from functools import partial
from typing import Callable

from ..faults.watchdog import WorkerFailure, monotonic_ns, ns_from_s
from ..obs.events import Event, EventKind
from ..uplink.serial import SubframeResult
from ..uplink.subframe import SubframeInput
from ..uplink.vectorized import process_subframes
from .core import Pending, Runtime, RuntimeStats

__all__ = ["InlineRuntime"]

#: Work one call takes on after its head, in resource elements (layers x
#: subcarriers, summed over a subframe's users): the head always goes in,
#: queued subframes join it while their sum fits. A shape group costs
#: ~0.3 ms fixed plus 1-2 us an element, so at 4 096 the fixed share is a
#: few per cent, ~85 mMTC subframes (2 users of 1 x 24) fit, and a
#: paper_mix-sized subframe (~3 000) runs all but alone — which bounds a
#: call's memory and the head-of-line delay whatever the queue length.
#: Flooding a bare runtime (medians of 7 alternating runs; none / 1 024 /
#: 2 048 / 4 096 / 8 192): 2 000 mMTC subframes 1 780 / 7 640 / 7 960 /
#: 8 400 / 9 310 a second with a median call of 0.5 / 2.1 / 3.9 / 7.7 /
#: 13 ms (PR 17's chain). 120 paper_mix subframes, re-measured at PR 24
#: the same way, twice: 170-180 / 167-190 / 180-186 / 194 / 193-201 a
#: second in calls of 5.3 / 5.4 / 6.4 / 9.1 / 15.8 ms holding 1.0 / 1.0 /
#: 1.2 / 1.9 / 3.2 subframes — no front group to share, but since PR 18
#: the combiner and the demapper batch across subframes, so 2-6 subframes
#: a call cost 0-10 % less a subframe than one (process_subframes called
#: directly). 4 096 keeps 90 % of what 8 192 reaches on mMTC, and all of
#: it on paper_mix, in calls of ~1.5-2 DELTA instead of 2.5-5. A
#: constant, not a parameter: batching never changes a bit.
_BATCH_ELEMENTS = 4096


def _elements(pending: Pending) -> int:
    return sum(s.user.layers * s.num_subcarriers for s in pending.subframe.slices)


class InlineRuntime(Runtime):
    """``processor`` (default: ``process_subframes`` on ``backend``) over
    the submitted subframes, on the polling thread; the other parameters
    are as for :class:`~repro.sched.threaded.ThreadedRuntime`."""

    chaos_kinds = ()  # its one worker is the whole shard

    def __init__(
        self, backend="vectorized", processor=None, observers=None,
        faults=None, resilience=None, ledger=None,
    ) -> None:
        stats = RuntimeStats([0], [0], [0])
        super().__init__(stats, observers, faults, resilience, ledger)
        self.backend = backend
        self.num_workers = 1
        self._process: Callable[[list[SubframeInput]], list[SubframeResult]]
        if processor is None:
            self._process = partial(process_subframes, backend=backend)
        else:  # its contract is one subframe a call
            self._process = lambda subframes: [processor(s) for s in subframes]
        # Only the batched chain has a fixed cost to amortize, and an armed
        # injector's hang / exception checks are per subframe index.
        self._batched = (
            processor is None and backend == "vectorized" and self.faults is None
        )
        self._queue: deque[Pending] = deque()  # submitted, not yet run
        self._alone: deque[Pending] = deque()  # a failed call's, to re-run
        #: The call an injected hang holds, and when the hang ends (ns).
        self._parked: tuple[list[Pending], int] | None = None

    def _start(self) -> None:
        pass  # no thread: whoever polls runs the work

    _close = _start  # and a hang ends when the runtime is closed

    def _enqueue(self, pending: Pending) -> None:
        self._queue.append(pending)

    def poll(self, timeout: float = 0.0) -> None:
        """Run at most one call on this thread (see the module docstring);
        wait up to ``timeout`` s only while an injected hang holds it."""
        tracker = self._tracker
        tracker.expire_deadlines()
        try:
            # Whatever was resolved meanwhile (deadline, abort) is skipped.
            while self._parked is None and (self._alone or self._queue):
                if batch := [p for p in self._take() if not p.resolved]:
                    self._parked = (batch, self._hang_end(batch[0].index))
            if self._parked is None:
                return
            batch, until = self._parked
            if self._started and (wait_s := (until - monotonic_ns()) / 1e9) > 0:
                time.sleep(min(timeout, wait_s))
                if monotonic_ns() < until:
                    tracker.expire_deadlines()
                    return
            self._parked = None
            self._run(batch)
        except BaseException as exc:
            # A real bug, made loud: drain() raises instead of waiting.
            self._parked = None
            error = f"{type(exc).__name__}: {exc}"
            tracker.worker_failed(WorkerFailure(0, error, fatal=True))
            tracker.abort_all(f"worker failure: {error}")
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise

    def _take(self) -> list[Pending]:
        """A failed call's member alone, else the oldest queued subframe
        and what is queued behind it while it fits :data:`_BATCH_ELEMENTS`."""
        if self._alone:
            return [self._alone.popleft()]
        queue = self._queue
        batch, room = [queue.popleft()], _BATCH_ELEMENTS
        while self._batched and queue and (room := room - _elements(queue[0])) >= 0:
            batch.append(queue.popleft())
        return batch

    def _hang_end(self, index: int) -> int:
        """When an injected hang of the call on ``index`` ends (ns), else 0."""
        faults = self.faults
        hang_s = None if faults is None else faults.check_worker_hang(0, index)
        if hang_s is None:
            return 0
        self._tracker.fault("worker-hang", 0, index)
        return monotonic_ns() + ns_from_s(hang_s)

    def _run(self, batch: list[Pending]) -> None:
        tracker = self._tracker
        try:
            results = self._attempt(batch)
        except Exception as exc:
            if len(batch) > 1:
                # Split: every member re-runs alone, so a poisoned
                # subframe spends its own retry budget and no other.
                self._alone.extend(batch)
                return
            users = [s.user.user_id for s in batch[0].subframe.slices]
            reason = f"{type(exc).__name__}: {exc}"
            if tracker.fail(batch[0], None, users, reason, 0):
                self._alone.appendleft(batch[0])  # the retry runs next
            return
        # A member whose deadline passed during the call ends aborted.
        tracker.expire_deadlines()
        for pending, result in zip(batch, results):
            users = len(pending.subframe.slices)
            with self.stats.lock:
                self.stats.tasks_executed[0] += 1
                self.stats.users_processed[0] += users
            # Whatever the processor returned is the subframe's result.
            found = result.user_results
            tracker.complete(pending, range(len(found)), found, users=users)

    def _attempt(self, batch: list[Pending]) -> list[SubframeResult]:
        index, emit, faults = batch[0].index, self.emit, self.faults
        if faults is not None and faults.check_task_exception(0, index):
            self._tracker.fault("task-exception", 0, index)
            raise RuntimeError(f"planned task failure (subframe {index})")
        subframes = [pending.subframe for pending in batch]
        if emit is None:
            return self._process(subframes)
        # One task per call: the busy time telemetry charges worker 0 once.
        data = {"stolen": False, "kernel": None, "subframe": index,
                "subframes": len(batch)}
        emit(Event(EventKind.TASK_START, monotonic_ns(), 0, data))
        results = self._process(subframes)
        emit(Event(EventKind.TASK_FINISH, monotonic_ns(), 0, data))
        return results
