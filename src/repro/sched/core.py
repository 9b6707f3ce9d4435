"""The runtime core: the one definition of running a subframe to a terminal.

Section IV's runtime is a small contract — a maintenance thread dispatches
a subframe, workers run its users, the subframe ends exactly once before
its deadline. :class:`SubframeTracker` is that contract: the pending map,
ledger dispatch/resolve, :func:`classify`, first-wins resolution, bounded
retry, wall-clock deadlines, late-completion and worker-failure accounting,
results by slice position and every DISPATCH / SUBFRAME_TERMINAL /
USER_RETRY / USER_ABORTED / FAULT event (a subframe's span is its
DISPATCH → SUBFRAME_TERMINAL pair).
:class:`Runtime` adds ``run`` / ``drain`` / ``collect_results`` / ``abort``,
the observer fan-out and fault-plan wrapping on top of four transport
hooks; a backend (:mod:`.threaded`, :mod:`.multiprocess`, :mod:`.inline`)
supplies only *transport*, and :func:`repro.sched.make_runtime` picks one
by name.

An observer with an ``on_terminal(result, state, t_ns)`` method is handed
every subframe's result at its terminal, on whichever thread resolved it;
results so delivered are not also kept for ``collect_results()``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Hashable, Iterable, Sequence

from ..faults.accounting import SubframeLedger, TerminalState
from ..faults.plan import FaultKind
from ..faults.watchdog import (
    ResilienceConfig,
    WATCHDOG_POLL_S,
    RuntimeHung,
    WorkerFailure,
    monotonic_ns,
    ns_from_s,
)
from ..obs.events import Event, EventKind
from ..phy.chain import UserResult
from ..uplink.serial import SubframeResult
from ..uplink.subframe import SubframeInput

__all__ = [
    "Pending",
    "Runtime",
    "RuntimeStats",
    "SubframeTracker",
    "WorkerFailuresError",
    "classify",
]


class WorkerFailuresError(RuntimeError):
    """Unexpected worker failures propagated by ``drain()``."""

    def __init__(self, failures: list[WorkerFailure]) -> None:
        self.failures = list(failures)
        lines = "; ".join(str(f) for f in failures)
        super().__init__(f"{len(failures)} worker failure(s): {lines}")


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


def classify(result: SubframeResult) -> TerminalState:
    """The terminal state a subframe's collected result stands for."""
    if result.aborted_user_ids:
        return TerminalState.ABORTED
    if any(not r.crc_ok for r in result.user_results):
        return TerminalState.CRC_FAILED
    return TerminalState.OK


@dataclass
class Pending:
    """One dispatched subframe until its terminal state. The fields after
    ``index`` are the tracker's, touched only under its lock; a transport
    may read ``resolved`` (it only ever turns True)."""

    subframe: SubframeInput
    index: int
    remaining: int
    results: list[UserResult | None]  # by slice position
    deadline_ns: int | None = None
    resolved: bool = False
    aborted_ids: list[int] = field(default_factory=list)
    attempts: dict[Hashable, int] = field(default_factory=dict)


class SubframeTracker:
    """Drives every dispatched subframe to exactly one terminal state.

    Thread-safe: transports call in from worker threads, the dispatching
    thread and whoever polls. ``_lock`` is never held across a ledger call,
    an emitted event or a listener, so it orders against no other lock.
    """

    def __init__(self, ledger, resilience, stats, emit, tags) -> None:
        self.ledger: SubframeLedger = ledger
        self.emit: Callable[[Event], None] | None = emit
        #: Constant payload of the events emitted here (the multiprocess
        #: parent's ``process_id``).
        self.tags: dict = tags or {}
        #: ``listener(result, state, t_ns)`` at every terminal, on the
        #: resolving thread, before the result becomes collectable.
        self.listeners: list[Callable[[SubframeResult, TerminalState, int], None]] = []
        #: Keep resolved results for ``take_completed``; off when an observer
        #: takes delivery of them, or a long-running service would hoard
        #: every LLR it ever produced.
        self.retain = True
        self.idle = threading.Event()  # set while nothing is outstanding
        self.idle.set()
        self._resilience: ResilienceConfig = resilience
        self._stats = stats  # retries / aborted_users, under stats.lock
        self._lock = threading.Lock()
        self._pending: dict[int, Pending] = {}  # guarded-by: _lock
        self._completed: list[SubframeResult] = []  # guarded-by: _lock
        self._failures: list[WorkerFailure] = []  # guarded-by: _lock
        self._late = 0  # guarded-by: _lock

    def reset(self, ledger: SubframeLedger | None) -> None:
        """A (re)start: forget old failures, adopt a fresh ledger if given."""
        self.ledger = ledger or self.ledger
        with self._lock:
            self._failures.clear()

    @property
    def outstanding(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def failures(self) -> list[WorkerFailure]:
        with self._lock:
            return list(self._failures)

    @property
    def late_completions(self) -> int:
        with self._lock:
            return self._late

    def take_completed(self) -> list[SubframeResult]:
        """Return and clear the resolved results, ordered by index."""
        with self._lock:
            results = sorted(self._completed, key=lambda r: r.subframe_index)
            self._completed.clear()
        return results

    def worker_failed(self, failure: WorkerFailure) -> None:
        with self._lock:
            self._failures.append(failure)

    # ------------------------------------------------------------ emission
    def _event(self, kind: EventKind, t: int, core: int, data: dict, tags=None) -> None:
        if self.emit is not None:
            self.emit(Event(kind, t, core, {**data, **(tags or self.tags)}))

    def fault(self, kind: str, worker: int, subframe: int, **tags) -> None:
        """An injected fault fired on ``worker`` (the FAULT event)."""
        data = {"fault": kind, "subframe": subframe}
        self._event(EventKind.FAULT, monotonic_ns(), worker, data, tags)

    # ---------------------------------------------------------- work units
    def dispatch(self, subframe: SubframeInput) -> Pending | None:
        """Enter one subframe; ``None`` when it was empty (resolved ``ok``)."""
        index, users = subframe.subframe_index, len(subframe.slices)
        pending = Pending(subframe, index, users, [None] * users)
        if self._resilience.deadline_s is not None:
            # ns_from_s rounds instead of truncating: int(s * 1e9) floored
            # the deadline one tick early at exact boundaries.
            pending.deadline_ns = monotonic_ns() + ns_from_s(
                self._resilience.deadline_s
            )
        self.ledger.dispatch(index, users)
        with self._lock:
            self._pending[index] = pending
            self.idle.clear()
        self._event(
            EventKind.DISPATCH, monotonic_ns(), -1, {"subframe": index, "users": users}
        )
        if not users:
            self._resolve(pending)
            return None
        return pending

    def complete(
        self, pending: Pending, positions: Iterable[int],
        results: Sequence[UserResult], aborted: Sequence[int] = (),
        users: int | None = None,
    ) -> bool:
        """One work unit is over: store its ``results`` by slice position,
        give up on its ``aborted`` users. It stood for ``users`` users (by
        default one per result or abort). ``False`` when it came late."""
        if users is None:
            users = len(results) + len(aborted)
        with self._lock:
            late = pending.resolved
            if late:
                self._late += len(results)
            else:
                for position, result in zip(positions, results):
                    pending.results[position] = result
                pending.aborted_ids.extend(aborted)
                pending.remaining -= users
            done = not late and pending.remaining == 0
        if done:
            self._resolve(pending)
        return not late

    def fail(
        self, pending: Pending, key: Hashable, user_ids: list[int], reason: str,
        worker: int = -1, **tags,
    ) -> bool:
        """Bounded retry of a failed work unit (a user, a whole subframe).

        ``True``: ``key`` has budget left and the transport requeues the
        unit. ``False``: its users were aborted — or the subframe was
        already resolved and the unit is simply dropped.
        """
        with self._lock:
            if pending.resolved:
                return False
            attempt = pending.attempts[key] = pending.attempts.get(key, 0) + 1
        retry = attempt <= self._resilience.max_retries
        with self._stats.lock:
            if retry:
                self._stats.retries += len(user_ids)
            else:
                self._stats.aborted_users += len(user_ids)
        kind, extra = (
            (EventKind.USER_RETRY, {"attempt": attempt})
            if retry
            else (EventKind.USER_ABORTED, {"was_adopted": True})
        )
        now = monotonic_ns()
        for user in user_ids:
            data = {"subframe": pending.index, "user": user, **extra, "reason": reason}
            self._event(kind, now, worker, data, tags)
        if not retry:
            self.complete(pending, (), (), aborted=user_ids)
        return retry

    def abort_all(self, reason: str, expired_at: int | None = None) -> None:
        """Resolve outstanding subframes as ``aborted``: all of them, or
        only those whose deadline is at or before ``expired_at``."""
        with self._lock:
            pendings = [
                p
                for p in self._pending.values()
                if expired_at is None
                or (p.deadline_ns is not None and expired_at >= p.deadline_ns)
            ]
        for pending in pendings:
            self._resolve(pending, TerminalState.ABORTED, reason)

    def expire_deadlines(self) -> None:
        """Abort whatever missed its wall-clock deadline."""
        if self._resilience.deadline_s is not None:
            self.abort_all("deadline expired", expired_at=monotonic_ns())

    def _resolve(
        self, pending: Pending, forced: TerminalState | None = None, reason: str = ""
    ) -> None:
        """Resolve one subframe to its single terminal state. Idempotent:
        the first caller (last work unit, deadline, abort path) wins; later
        calls are recorded as late resolutions in the ledger, nothing else."""
        index = pending.index
        with self._lock:
            first = not pending.resolved
            pending.resolved = True
            if first and forced is TerminalState.ABORTED:
                # Users that never produced a result were abandoned too —
                # record them so the result explains itself.
                seen = {r.user_id for r in pending.results if r is not None}
                seen.update(pending.aborted_ids)
                pending.aborted_ids += [
                    s.user.user_id
                    for s in pending.subframe.slices
                    if s.user.user_id not in seen
                ]
            result = SubframeResult(
                subframe_index=index,
                user_results=[r for r in pending.results if r is not None],
                aborted_user_ids=list(pending.aborted_ids),
            )
        state = forced or classify(result)
        if not first:
            self.ledger.resolve(index, state, reason or "late duplicate")
            return
        self.ledger.resolve(index, state, reason)
        now = monotonic_ns()
        data = {"subframe": index, "state": state.value,
                "aborted_users": len(result.aborted_user_ids), "reason": reason}
        self._event(EventKind.SUBFRAME_TERMINAL, now, -1, data)
        for listener in self.listeners:
            listener(result, state, now)
        with self._lock:
            self._pending.pop(index, None)
            if self.retain:
                self._completed.append(result)
            if not self._pending:
                self.idle.set()


class Runtime:
    """What every execution backend offers; subclasses add transport only.

    A subclass implements ``_start`` (bring workers up), ``_enqueue`` (hand
    them a dispatched :class:`Pending`), ``_close`` (take them down) and,
    unless its workers progress on their own threads, ``poll`` (one bounded
    scheduling step); it reports work units back through ``self._tracker``
    (``complete`` / ``fail`` / ``worker_failed`` / ``abort_all`` / ``fault``).
    """

    #: Worker faults a generated chaos plan may aim at this transport.
    chaos_kinds: ClassVar[tuple[FaultKind, ...]] = (
        FaultKind.WORKER_DEATH, FaultKind.TASK_EXCEPTION,
    )
    num_workers: int  # set by the transport

    def __init__(self, stats, observers, faults, resilience, ledger, tags=None) -> None:
        self.observers = list(observers) if observers is not None else []
        if faults is not None and not hasattr(faults, "check_worker_death"):
            from ..faults.injector import ThreadFaultInjector

            faults = ThreadFaultInjector(faults)
        #: The armed fault injector (a bare plan is wrapped), or ``None``.
        self.faults = faults
        self.stats = stats
        fanout = tuple(self.observers)

        def emit(event: Event) -> None:
            for observer in fanout:
                observer(event)

        #: The observer fan-out hook; ``None`` with no observer attached, so
        #: a disabled emission site costs one identity check.
        self.emit = (fanout[0] if len(fanout) == 1 else emit) if fanout else None
        self._resilience: ResilienceConfig = resilience or ResilienceConfig()
        self._external_ledger: SubframeLedger | None = ledger
        self._started = False
        self._tracker = SubframeTracker(
            ledger or SubframeLedger(), self._resilience, stats, self.emit, tags
        )
        takers = [o.on_terminal for o in fanout if hasattr(o, "on_terminal")]
        self._tracker.listeners += takers
        self._tracker.retain = not takers

    # ----------------------------------------------------- transport hooks
    def _start(self) -> None:
        raise NotImplementedError

    def _enqueue(self, pending: Pending) -> None:
        raise NotImplementedError

    def _close(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------ API
    @property
    def ledger(self) -> SubframeLedger:
        return self._tracker.ledger

    @property
    def failures(self) -> list[WorkerFailure]:
        """Worker failures recorded so far (injected and unexpected)."""
        return self._tracker.failures

    @property
    def late_completions(self) -> int:
        """Users that finished after their subframe was already resolved."""
        return self._tracker.late_completions

    def start(self) -> None:
        """Bring the workers up; a fresh ledger unless one was handed in."""
        if self._started:
            raise RuntimeError("runtime already started")
        self._tracker.reset(None if self._external_ledger else SubframeLedger())
        self._start()
        self._started = True

    def submit(self, subframe: SubframeInput) -> None:
        """Dispatch one subframe to the workers."""
        if not self._started:
            raise RuntimeError("runtime not started")
        pending = self._tracker.dispatch(subframe)
        if pending is not None:
            self._enqueue(pending)

    def poll(self, timeout: float = 0.0) -> None:
        """One scheduling step: wait up to ``timeout`` s for progress, then
        abort whatever missed its wall-clock deadline. (A transport whose
        workers do not progress on their own overrides this.)"""
        if timeout > 0:
            self._tracker.idle.wait(timeout)
        self._tracker.expire_deadlines()

    def drain(self, timeout: float | None = None) -> None:
        """Block until every submitted subframe reached its terminal.

        Raises :class:`WorkerFailuresError` when a worker died of an
        unexpected (non-injected) failure, :class:`RuntimeHung` when
        ``timeout`` (default: the configured ``drain_timeout_s``) expires.
        """
        if timeout is None:
            timeout = self._resilience.drain_timeout_s
        deadline = None if timeout is None else monotonic_ns() + ns_from_s(timeout)
        while self.outstanding and (deadline is None or monotonic_ns() < deadline):
            self.poll(WATCHDOG_POLL_S)
        self.check_drained(timeout)

    @property
    def outstanding(self) -> int:
        """Subframes submitted and not yet at their terminal."""
        return self._tracker.outstanding

    def check_drained(self, timeout: float | None) -> None:
        """Raise what :meth:`drain` raises when its wait of ``timeout`` s
        ends now: for a caller that waits its own way (the serve loop
        awaits, polling, so its thread keeps running meanwhile)."""
        fatal = [f for f in self._tracker.failures if f.fatal]
        if fatal:
            raise WorkerFailuresError(fatal)
        if outstanding := self.outstanding:
            raise RuntimeHung(
                f"drain timed out after {timeout}s with {outstanding} "
                "subframe(s) outstanding"
            )

    def collect_results(self) -> list[SubframeResult]:
        """Drain, then return and clear the results: sorted by subframe
        index, each one's ``user_results`` in slice order."""
        if self._started:
            self.drain()
        return self._tracker.take_completed()

    def close(self) -> None:
        """Take the workers down without draining (idempotent)."""
        if self._started:
            self._started = False
            self._close()

    def abort(self) -> None:
        """Emergency shutdown: account every unresolved subframe as
        ``aborted`` (the ledger still balances), then :meth:`close`."""
        self._tracker.abort_all("runtime aborted")
        self.close()

    def run(self, subframes: list[SubframeInput]) -> list[SubframeResult]:
        """Convenience: start (if needed), submit all, drain, collect. When
        this call started the workers it also closes them, and on any error
        (``KeyboardInterrupt`` included) aborts what is outstanding —
        accounted, not lost — before the exception propagates."""
        owns = not self._started
        if owns:
            self.start()
        try:
            for subframe in subframes:
                self.submit(subframe)
            self.drain()
        except BaseException:
            if owns:
                self.abort()
            raise
        if owns:
            self.close()
        return self.collect_results()
