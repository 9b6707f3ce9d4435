"""Thread-based work-stealing runtime (the Pthreads version, Section IV).

This is the functional twin of the paper's default Pthreads benchmark: a
maintenance thread dispatches subframes onto a global user queue, worker
threads pick users up, decompose them into the Fig. 5 task graph, and
steal from each other when idle.

Because of the CPython GIL this runtime demonstrates *correctness* (the
parallel execution produces bit-identical results to the serial version,
Section IV-D), not wall-clock scaling; timing behaviour is studied with
``repro.sim`` instead. It emits the simulator's task vocabulary: every
queued task and each of a user's two joins (combiner, finalize, run as
``serial`` tasks on the user thread) is one ``task-start``/``task-finish``
pair, so ``tests/sched/test_stage_program.py`` can check that both run
the same per-user stage program.

This module is *transport* only: the global queue, the per-worker deques,
the steal policy and the Fig. 5 stage runner. What it means to run a
subframe to its terminal state — ledger, retry budget, deadlines, events,
``run``/``drain``/``collect_results``/``abort`` — is
:mod:`repro.sched.core`'s, shared with every other backend. The work unit
is one *user*: a task exception requeues that user (or aborts it past the
:class:`~repro.faults.watchdog.ResilienceConfig` budget); a dying worker
requeues the user it held (orphan reclamation) and reports a
:class:`~repro.faults.watchdog.WorkerFailure`, so ``drain()`` fails loudly
instead of blocking forever (see ``docs/robustness.md``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, TypeVar

from ..faults.accounting import SubframeLedger
from ..faults import watchdog
from ..faults.injector import InjectedTaskError, InjectedWorkerDeath
from ..faults.watchdog import (
    ResilienceConfig,
    WorkerFailure,
    monotonic_ns,
    ns_from_s,
)
from ..obs.events import Event, EventKind
from ..uplink.subframe import UserSlice
from ..uplink.tasks import UserJob
from .core import Pending, Runtime, WorkerFailuresError
from .policy import RandomVictimPolicy
from .queues import GlobalQueue, WorkStealingDeque

__all__ = ["ThreadedRuntime", "RuntimeStats", "WorkerFailuresError"]

_R = TypeVar("_R")


@dataclass
class RuntimeStats:
    """Counters describing one run (useful for scheduling tests).

    Worker threads update the per-worker slots concurrently and callers
    may sum them mid-run, so every access goes through ``lock`` (the
    ``_GUARDED_BY`` map below is enforced statically by ``repro lint``'s
    REP101 rule).
    """

    _GUARDED_BY: ClassVar[dict[str, str]] = {
        "tasks_executed": "lock",
        "steals": "lock",
        "users_processed": "lock",
        "retries": "lock",
        "aborted_users": "lock",
    }

    tasks_executed: list[int] = field(default_factory=list)
    steals: list[int] = field(default_factory=list)
    users_processed: list[int] = field(default_factory=list)
    retries: int = 0
    aborted_users: int = 0
    lock: threading.Lock = field(
        default_factory=threading.Lock,
        repr=False,
        compare=False,
    )

    @property
    def total_tasks(self) -> int:
        with self.lock:
            return sum(self.tasks_executed)

    @property
    def total_steals(self) -> int:
        with self.lock:
            return sum(self.steals)


class _Latch:
    """Counts task completions so the user thread can join a stage."""

    def __init__(self, count: int) -> None:
        self._count = count  # guarded-by: _lock
        self._lock = threading.Lock()
        self._event = threading.Event()
        if count == 0:
            self._event.set()

    def count_down(self) -> None:
        with self._lock:
            self._count -= 1
            if self._count <= 0:
                self._event.set()

    def wait(self, help_while_waiting: Callable[[], bool] | None = None) -> None:
        """Block until all tasks completed, optionally helping other work."""
        while not self._event.is_set():
            if help_while_waiting is None or not help_while_waiting():
                self._event.wait(timeout=0.0005)


#: A queued parallel-stage task, its event payload and its stage's join.
_Task = tuple[Callable[[], None], dict, _Latch]


class ThreadedRuntime(Runtime):
    """Work-stealing execution of the benchmark on real threads.

    Parameters
    ----------
    num_workers:
        Worker thread count (the paper uses up to 62 on the TILEPro64).
    steal_seed:
        Seed for the random victim policy.
    observers:
        Optional event observers (see :mod:`repro.obs`). Events carry
        ``time.monotonic_ns()`` timestamps and are emitted from worker
        threads — observers must tolerate concurrent calls (the built-in
        :class:`~repro.obs.recorder.EventRecorder` appends are atomic
        under the GIL). With no observer attached, emission sites cost one
        identity check. Every task event carries ``kernel``,
        ``subframe``, ``user`` and ``stolen``; the two joins add
        ``serial``, as on the simulator.
    faults:
        Optional :class:`~repro.faults.injector.ThreadFaultInjector`
        (or a bare :class:`~repro.faults.plan.FaultPlan`, which is wrapped
        in one) carrying a seeded fault plan (worker death/hangs, per-task
        exceptions) to inject into this run.
    resilience:
        Fault-tolerance knobs (:class:`~repro.faults.watchdog.ResilienceConfig`).
        The default keeps retry-on-failure on (one retry) with no
        wall-clock deadline, so zero-fault runs pay nothing beyond
        per-subframe ledger bookkeeping.
    ledger:
        Optional externally-owned
        :class:`~repro.faults.accounting.SubframeLedger`; by default the
        runtime creates a fresh one at :meth:`start`.
    """

    def __init__(
        self,
        num_workers: int = 4,
        steal_seed: int = 0,
        observers=None,
        faults=None,
        resilience: ResilienceConfig | None = None,
        ledger: SubframeLedger | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        stats = RuntimeStats(
            tasks_executed=[0] * num_workers,
            steals=[0] * num_workers,
            users_processed=[0] * num_workers,
        )
        super().__init__(stats, observers, faults, resilience, ledger)
        self.num_workers = num_workers
        self._policy = RandomVictimPolicy(num_workers, seed=steal_seed)
        #: (pending, slice position, user slice) per dispatched user.
        self._global: GlobalQueue = GlobalQueue()
        self._locals: list[WorkStealingDeque[_Task]] = [
            WorkStealingDeque() for _ in range(num_workers)
        ]
        self._shutdown = threading.Event()
        self._threads: list[threading.Thread] = []
        self._dead_workers: set[int] = set()  # guarded-by: _dead_lock
        self._dead_lock = threading.Lock()

    # ------------------------------------------------------------ transport
    def _start(self) -> None:
        """Spawn the worker threads."""
        self._shutdown.clear()
        with self._dead_lock:
            self._dead_workers.clear()
        for worker_id in range(self.num_workers):
            thread = threading.Thread(
                target=self._worker_loop, args=(worker_id,), daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _close(self) -> None:
        """Stop the worker threads, joining each with a bounded timeout."""
        self._shutdown.set()
        for thread in self._threads:
            thread.join(timeout=watchdog.JOIN_TIMEOUT_S)
        self._threads.clear()

    def _enqueue(self, pending: Pending) -> None:
        """Dispatch one subframe's users onto the global queue."""
        self._global.put_subframe(
            [
                (pending, position, user_slice)
                for position, user_slice in enumerate(pending.subframe.slices)
            ]
        )

    def _on_worker_dead(
        self, worker_id: int, error: str, injected: bool
    ) -> None:
        """A worker thread is exiting: record it and keep the run sound.

        An injected death is an expected resilience scenario; an
        unexpected one is fatal and makes ``drain()`` raise. Either way,
        if the last live worker just died, all outstanding subframes are
        aborted so nothing blocks forever waiting for work nobody will do.
        """
        self._tracker.worker_failed(
            WorkerFailure(worker_id, error, fatal=not injected, injected=injected)
        )
        with self._dead_lock:
            self._dead_workers.add(worker_id)
            all_dead = len(self._dead_workers) >= self.num_workers
        if all_dead or not injected:
            self._tracker.abort_all(
                "all workers dead" if all_dead else f"worker failure: {error}"
            )

    # ------------------------------------------------------------ internals
    def _worker_loop(self, worker_id: int) -> None:
        try:
            while not self._shutdown.is_set():
                if not self._find_and_run_work(worker_id):
                    time.sleep(0.0002)  # idle back-off (the NONAP busy-spin)
        except InjectedWorkerDeath as death:
            self._on_worker_dead(worker_id, str(death), injected=True)
        except BaseException as exc:
            # The silent-death path: without this, an uncaught exception
            # killed the thread and result collection blocked forever.
            self._on_worker_dead(
                worker_id, f"{type(exc).__name__}: {exc}", injected=False
            )

    def _run_task(
        self,
        worker_id: int,
        task: Callable[[], _R],
        payload: dict,
        latch: _Latch | None = None,
        stolen: bool = False,
    ) -> _R:
        """Run one Fig. 5 task on this worker and return its value.

        ``payload`` is the task's event payload (``kernel``, ``subframe``,
        ``user``, and ``serial`` for a join). The task is counted and its
        ``TASK_FINISH`` emitted even if it raises, so starts and finishes
        stay paired; a join's exception then reaches the user's retry
        policy in :meth:`_process_user`. A parallel-stage task counts its
        stage's ``latch`` down last, so its finish is stamped before the
        join it releases starts.
        """
        if self.emit is not None:
            self._event(EventKind.TASK_START, worker_id, stolen=stolen, **payload)
        try:
            return task()
        finally:
            with self.stats.lock:
                self.stats.tasks_executed[worker_id] += 1
            if self.emit is not None:
                self._event(
                    EventKind.TASK_FINISH, worker_id, stolen=stolen, **payload
                )
            if latch is not None:
                latch.count_down()

    def _event(self, kind: EventKind, worker_id: int, **data) -> None:
        """Emit one event from a worker thread, stamped now. Hot sites check
        ``self.emit`` first so a run without observers builds no payload."""
        if self.emit is not None:
            self.emit(Event(kind, time.monotonic_ns(), worker_id, data))

    def _steal_task(self, worker_id: int) -> _Task | None:
        """Try every victim once; returns the stolen task, if any."""
        for victim in self._policy.victim_order(worker_id):
            task = self._locals[victim].steal()
            if task is not None:
                with self.stats.lock:
                    self.stats.steals[worker_id] += 1
                if self.emit is not None:
                    self._event(EventKind.STEAL, worker_id, victim=victim)
                return task
        return None

    def _find_and_run_work(self, worker_id: int) -> bool:
        """One scheduling step; returns False when no work was found."""
        # 1. Local tasks first.
        task = self._locals[worker_id].pop()
        if task is not None:
            self._run_task(worker_id, *task)
            return True
        # 2. Global user queue beats stealing.
        entry = self._global.get()
        if entry is not None:
            self._process_user(worker_id, *entry)
            return True
        # 3. Steal.
        task = self._steal_task(worker_id)
        if task is not None:
            self._run_task(worker_id, *task, stolen=True)
            return True
        return False

    def _interruptible_sleep(self, seconds: float) -> None:
        """Sleep in shutdown-aware slices (a wedged worker still stops).

        Uses the same monotonic-ns clock as the subframe deadlines (it
        previously mixed ``time.monotonic()`` floats into an otherwise
        ns-integer deadline scheme).
        """
        deadline_ns = monotonic_ns() + ns_from_s(seconds)
        while not self._shutdown.is_set():
            remaining_ns = deadline_ns - monotonic_ns()
            if remaining_ns <= 0:
                return
            time.sleep(min(remaining_ns / 1e9, 0.05))

    def _process_user(
        self, worker_id: int, pending: Pending, position: int, user_slice: UserSlice
    ) -> None:
        """Become the user thread for one user (Section IV-C).

        Failure policy: any exception escaping the user's task graph is a
        *user* failure, not a runtime failure — the user is requeued onto
        the global queue (bounded by the retry budget) or aborted, and the
        worker moves on. A planned :class:`InjectedWorkerDeath` requeues
        the user first (orphan reclamation) and then kills this thread.
        """
        index = pending.index
        user_id = user_slice.user.user_id
        with self.stats.lock:
            self.stats.users_processed[worker_id] += 1
        if self.emit is not None:
            self._event(EventKind.USER_START, worker_id, subframe=index, user=user_id)

        def requeue_or_abort(reason: str) -> None:
            if self._tracker.fail(pending, user_id, [user_id], reason, worker_id):
                self._global.put_subframe([(pending, position, user_slice)])

        faults = self.faults
        if faults is not None:
            if faults.check_worker_death(worker_id, index):
                self._tracker.fault("worker-death", worker_id, index)
                requeue_or_abort("worker death")
                raise InjectedWorkerDeath(
                    f"planned death at subframe {index}"
                )
            hang_s = faults.check_worker_hang(worker_id, index)
            if hang_s is not None:
                self._tracker.fault("worker-hang", worker_id, index)
                self._interruptible_sleep(hang_s)
        try:
            if faults is not None and faults.check_task_exception(
                worker_id, index
            ):
                self._tracker.fault("task-exception", worker_id, index)
                raise InjectedTaskError(
                    f"planned task failure (subframe {index}, "
                    f"user {user_id})"
                )
            result = self._execute_user_job(worker_id, pending, user_slice)
        except InjectedWorkerDeath:
            requeue_or_abort("worker death")
            raise
        except Exception as exc:
            requeue_or_abort(f"{type(exc).__name__}: {exc}")
            return
        if self.emit is not None:
            self._event(EventKind.USER_FINISH, worker_id, subframe=index, user=user_id)
        self._tracker.complete(pending, [position], [result])

    def _execute_user_job(
        self, worker_id: int, pending: Pending, user_slice: UserSlice
    ):
        """Run one user's Fig. 5 stage program; returns its UserResult.

        The same program as the simulator's: each parallel stage's tasks
        fan out through this worker's deque (thieves may take them), and
        each join runs as one serial task on this, the user's, thread.
        """
        job = UserJob(user_slice, pending.subframe.grid)
        ids = {"subframe": pending.index, "user": user_slice.user.user_id}
        self._run_stage(worker_id, job.chest_tasks(), {"kernel": "chest", **ids})
        self._run_task(
            worker_id, job.run_combiner,
            {"kernel": "combiner", "serial": True, **ids},
        )
        self._run_stage(worker_id, job.data_tasks(), {"kernel": "symbol", **ids})
        return self._run_task(
            worker_id, job.finalize,
            {"kernel": "finalize", "serial": True, **ids},
        )

    def _run_stage(
        self,
        worker_id: int,
        tasks: list[Callable[[], None]],
        payload: dict,
    ) -> None:
        """Push a stage's tasks locally, process until empty, join.

        A task that raises does *not* take down whichever thread happened
        to execute it (it may be a thief helping out): the failure is
        recorded against the stage and re-raised here, on the owning user
        thread, after the join — so the retry/abort policy charges the
        right user.
        """
        latch = _Latch(len(tasks))
        failures: list[Exception] = []  # list.append is atomic (GIL)

        def wrap(task: Callable[[], None]) -> _Task:
            def run() -> None:
                try:
                    task()
                except Exception as exc:
                    failures.append(exc)

            return run, payload, latch

        self._locals[worker_id].push_all([wrap(t) for t in tasks])
        while True:
            task = self._locals[worker_id].pop()
            if task is None:
                break
            self._run_task(worker_id, *task)
        # Other workers may still hold stolen tasks; help elsewhere while
        # waiting ("the user thread waits until the results from all tasks
        # become available").
        latch.wait(help_while_waiting=lambda: self._help_once(worker_id))
        if failures:
            raise failures[0]

    def _help_once(self, worker_id: int) -> bool:
        """Steal one task from somewhere while blocked on a join."""
        task = self._steal_task(worker_id)
        if task is not None:
            self._run_task(worker_id, *task, stolen=True)
            return True
        return False
