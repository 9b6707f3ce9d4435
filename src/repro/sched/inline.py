"""``serial`` / ``vectorized`` as a transport: one thread, whole subframes.

The single-thread functional backends need no scheduler, but they still owe
the runtime contract (:mod:`repro.sched.core`): exactly one terminal per
subframe, bounded retry, deadlines. :class:`InlineRuntime` is the smallest
transport that honours it — one worker thread taking dispatched subframes
off a queue and calling ``process_subframes(backend=...)`` (or the caller's
``processor``) on them. The whole subframe is the work unit, so a failure
retries or aborts all of its users together.

**Batching under backlog.** The worker blocks for one subframe and, before
computing, also takes what is *already* queued behind it — it never waits
for more — up to :data:`_BATCH_ELEMENTS` of work, and runs the lot as one
shape-grouped ``process_subframes`` call: the users of different subframes
are as independent as the users of one, and results are bit-exact per
subframe whatever shares the call. An idle or paced runtime therefore sees
batches of one, event for event what it did before; a runtime that is
behind pays the per-call fixed cost once per batch, exactly when it needs
to. Only the call is shared: terminals, the ledger, the retry budget,
results and ``stats`` stay per subframe, resolved in submit order after
the call; a call that raises is split and every member re-run alone. The
``serial`` backend, a ``processor`` and an armed fault injector keep one
subframe a call (``docs/serving.md``, "Batching under backlog").
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from functools import partial
from typing import Callable, Iterator

from ..faults import watchdog
from ..faults.watchdog import WorkerFailure, monotonic_ns
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
    """One thread running ``processor`` over each submitted subframe
    (default: ``process_subframes`` on ``backend`` over whatever is queued,
    see the module docstring); the other parameters are as for
    :class:`~repro.sched.threaded.ThreadedRuntime`."""

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
        self._queue: queue.SimpleQueue[Pending | None] = queue.SimpleQueue()
        self._thread: threading.Thread | None = None
        self._halt = threading.Event()  # cuts an injected hang short

    def _start(self) -> None:
        self._halt.clear()
        self._thread = threading.Thread(target=self._work, daemon=True)
        self._thread.start()

    def _enqueue(self, pending: Pending) -> None:
        self._queue.put(pending)

    def _close(self) -> None:
        self._halt.set()
        self._queue.put(None)
        if self._thread is not None:
            self._thread.join(timeout=watchdog.JOIN_TIMEOUT_S)

    def _work(self) -> None:
        try:
            for batch in self._batches():
                self._run(batch)
        except BaseException as exc:
            # The silent-death path, made loud: drain() raises instead of
            # waiting forever for a thread that is gone.
            error = f"{type(exc).__name__}: {exc}"
            self._tracker.worker_failed(WorkerFailure(0, error, fatal=True))
            self._tracker.abort_all(f"worker failure: {error}")

    def _batches(self) -> Iterator[list[Pending]]:
        """The queue as lists of pendings, one list a call, until the close
        sentinel: block for a head, then add what is *already* waiting
        behind it while it fits :data:`_BATCH_ELEMENTS`. Never waits for
        company, so an idle or paced runtime sees batches of one."""
        waiting: deque[Pending | None] = deque()  # taken, not yet run
        while True:
            if not waiting:
                waiting.append(self._queue.get())
            # Sole consumer: a queue seen non-empty cannot raise Empty.
            while not self._queue.empty():
                waiting.append(self._queue.get_nowait())
            if (head := waiting.popleft()) is None:
                return  # closed: nothing queued after the sentinel runs
            batch, room = [head], _BATCH_ELEMENTS
            while (
                self._batched
                and waiting
                and waiting[0] is not None
                and (room := room - _elements(waiting[0])) >= 0
            ):
                batch.append(waiting.popleft())
            yield batch

    def _run(self, batch: list[Pending]) -> None:
        # Whatever was resolved meanwhile (deadline, abort) is skipped.
        while batch := [p for p in batch if not p.resolved]:
            try:
                results = self._attempt(batch)
            except Exception as exc:
                if len(batch) > 1:
                    # Split: every member re-runs alone, so a poisoned
                    # subframe spends its own retry budget and no other.
                    for pending in batch:
                        self._run([pending])
                    return
                users = [s.user.user_id for s in batch[0].subframe.slices]
                reason = f"{type(exc).__name__}: {exc}"
                if not self._tracker.fail(batch[0], None, users, reason, 0):
                    return
            else:
                for pending, result in zip(batch, results):
                    users = len(pending.subframe.slices)
                    with self.stats.lock:
                        self.stats.tasks_executed[0] += 1
                        self.stats.users_processed[0] += users
                    # Whatever the processor returned is the subframe's result.
                    found = result.user_results
                    self._tracker.complete(
                        pending, range(len(found)), found, users=users
                    )
                return

    def _attempt(self, batch: list[Pending]) -> list[SubframeResult]:
        index, emit, faults = batch[0].index, self.emit, self.faults
        if faults is not None:  # armed: ``batch`` is one subframe
            hang_s = faults.check_worker_hang(0, index)
            if hang_s is not None:
                self._tracker.fault("worker-hang", 0, index)
                self._halt.wait(hang_s)
            if faults.check_task_exception(0, index):
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
