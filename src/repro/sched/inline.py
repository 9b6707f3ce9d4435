"""``serial`` / ``vectorized`` as a transport: one thread, whole subframes.

The single-thread functional backends need no scheduler, but they still owe
the runtime contract (:mod:`repro.sched.core`): exactly one terminal per
subframe, bounded retry, deadlines. :class:`InlineRuntime` is the smallest
transport that honours it — one worker thread taking dispatched subframes
off a queue and calling ``process_subframe(backend=...)`` (or the caller's
``processor``) on each. The whole subframe is the work unit, so a failure
retries or aborts all of its users together.
"""

from __future__ import annotations

import queue
import threading
from functools import partial

from ..faults.watchdog import WorkerFailure, monotonic_ns
from ..obs.events import Event, EventKind
from ..uplink.serial import process_subframe
from .core import Pending, Runtime
from .threaded import RuntimeStats

__all__ = ["InlineRuntime"]


class InlineRuntime(Runtime):
    """One thread running ``processor`` (default: ``process_subframe`` on
    ``backend``) over each submitted subframe; the other parameters are as
    for :class:`~repro.sched.threaded.ThreadedRuntime`."""

    chaos_kinds = ()  # its one worker is the whole shard

    def __init__(
        self, backend="vectorized", processor=None, observers=None,
        emit_spans=True, faults=None, resilience=None, ledger=None,
    ) -> None:
        stats = RuntimeStats([0], [0], [0])
        super().__init__(stats, observers, emit_spans, faults, resilience, ledger)
        self.backend = backend
        self.num_workers = 1
        self._process = processor or partial(process_subframe, backend=backend)
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
            self._thread.join(timeout=self._resilience.join_timeout_s)

    def _work(self) -> None:
        try:
            while (pending := self._queue.get()) is not None:
                self._run(pending)
        except BaseException as exc:
            # The silent-death path, made loud: drain() raises instead of
            # waiting forever for a thread that is gone.
            error = f"{type(exc).__name__}: {exc}"
            self._tracker.worker_failed(WorkerFailure(0, error, fatal=True))
            self._tracker.abort_all(f"worker failure: {error}")

    def _run(self, pending: Pending) -> None:
        users = [s.user.user_id for s in pending.subframe.slices]
        while not pending.resolved:
            try:
                results = self._attempt(pending)
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
                if not self._tracker.fail(pending, None, users, reason, 0):
                    return
            else:
                with self.stats.lock:
                    self.stats.tasks_executed[0] += 1
                    self.stats.users_processed[0] += len(users)
                # Whatever the processor returned is the subframe's result.
                self._tracker.complete(
                    pending, range(len(results)), results, users=len(users)
                )
                return

    def _attempt(self, pending: Pending) -> list:
        index, emit, faults = pending.index, self.emit, self.faults
        if faults is not None:
            hang_s = faults.check_worker_hang(0, index)
            if hang_s is not None:
                self._tracker.fault("worker-hang", 0, index)
                self._halt.wait(hang_s)
            if faults.check_task_exception(0, index):
                self._tracker.fault("task-exception", 0, index)
                raise RuntimeError(f"planned task failure (subframe {index})")
        if emit is None:
            return self._process(pending.subframe).user_results
        # One task per subframe: the busy time telemetry charges worker 0.
        data = {"stolen": False, "kernel": None, "subframe": index}
        emit(Event(EventKind.TASK_START, monotonic_ns(), 0, data))
        result = self._process(pending.subframe)
        emit(Event(EventKind.TASK_FINISH, monotonic_ns(), 0, data))
        return result.user_results
