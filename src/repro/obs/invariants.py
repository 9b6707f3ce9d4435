"""Scheduler invariant checking over the structured event stream.

Every power/activity figure flows through the simulator's core-state
accounting, so silent state corruption (a core in two idle sets, a napping
core executing work, a lost user) skews downstream statistics without
failing any functional assertion. The checker subscribes to the
:class:`~repro.obs.events.Event` stream of one
:class:`~repro.sim.machine.MachineSimulator` run and validates, at every
event:

* the three idle structures (``_idle_spin``, ``_idle_nap``, ``_disabled``)
  are pairwise disjoint;
* set membership matches per-core state: a registered spinner is in SPIN
  and not busy, a registered napper is in NAP and not busy, a disabled
  core is in DISABLED, not busy, and holds no job;
* a busy (executing) core is in COMPUTE and in no idle set — a NAP or
  DISABLED core never executes;
* a task starts only on a core in COMPUTE that is in no idle set.

At each dispatch (a quiescent point between engine callbacks) and at run
end it additionally checks conservation:

* tasks: started - finished == number of currently busy cores;
* users: dispatched == finished + queued + in-flight jobs + aborted;

and at run end:

* the run's ledger (``SimResult.ledger``) passes ``check()`` and holds no
  late resolution: every dispatched subframe ended exactly once;
* :meth:`repro.sim.trace.OccupancyTrace.check_conservation` holds (every
  window's occupancies sum to the worker cycle budget);
* no subframe completes before its own dispatch, and completion cycles
  of completed, non-empty subframes are monotone in dispatch order up to
  a slack of max(DELTA, worst observed latency minus DELTA) — under
  backlog a later, lighter subframe legitimately finishes earlier by up
  to the straddling subframe's excess latency.

The checker is bound to one simulator run by ``on_run_start``; an event
before that is itself a violation. Set ``REPRO_INVARIANTS=1`` to
auto-attach a strict checker to every simulator run (used by the CI
invariants job).
"""

from __future__ import annotations

from typing import Any

from ..faults.accounting import LedgerError
from ..sim.trace import CoreState
from .events import EventKind

__all__ = [
    "IGNORED_EVENT_KINDS",
    "InvariantViolation",
    "SchedulerInvariantChecker",
]

#: Event kinds the checker deliberately takes no kind-specific action on
#: (``repro lint``'s REP302 cross-check enforces that every
#: :class:`EventKind` is either handled below or listed here):
#:
#: * ``GOVERNOR`` — records the policy decision; it is cross-checked
#:   against ``SimResult.active_workers`` by the experiment tests, not by
#:   per-event state validation;
#: * ``STATE_TRANSITION`` — state changes are validated *implicitly*: the
#:   full per-core state check in ``_check_state`` runs on every event,
#:   so an illegal transition is caught at the very next emission;
#: * ``WAKE_CHECK`` — a napping core's periodic poll carries no state of
#:   its own beyond the SPIN transition it triggers (validated as above);
#: * ``GATING`` — synthesized post-hoc by the timeline exporter from the
#:   analytic power-gating model (Eqs. 6-9); it never reflects live
#:   simulator state, so there is nothing to cross-check per event;
#: * ``FAULT`` — an injected fault firing is an *input* to the run, not
#:   scheduler state; its downstream effects are what the retry/abort
#:   counters and the terminal-accounting rule validate;
#: * ``SHED`` — admission control drops users *before* dispatch, so shed
#:   work never enters the conservation ledger (``DISPATCH`` carries the
#:   admitted count); the shed outcome itself is validated by the
#:   run's :class:`~repro.faults.accounting.SubframeLedger`;
#: * ``SUBFRAME_TERMINAL`` — announces what the simulator already recorded
#:   in the run's ledger, which is checked once, at run end;
#: * ``SLO_BREACH`` / ``SLO_ALERT`` / ``SLO_RESOLVED`` — pure telemetry
#:   *outputs* emitted by :class:`repro.obs.slo.SLOEngine` from derived
#:   windowed aggregates; they describe measurements of scheduler
#:   behaviour, carry no scheduler state of their own, and never feed
#:   back into scheduling decisions.
#: * ``ARRIVAL`` / ``BACKPRESSURE`` — serve-mode ingest events emitted by
#:   :mod:`repro.serve.loop` *before* a subframe enters any scheduler
#:   (arrival lag, queue depth, and drop-at-the-door decisions); they
#:   describe the stream feeding the runtimes, not simulator core state,
#:   and their accounting is validated by the serve run's shared
#:   :class:`~repro.faults.accounting.SubframeLedger` instead.
#: * ``DEGRADE`` / ``RECOVER`` — adaptive-admission state transitions
#:   emitted by :class:`repro.serve.overload.OverloadController`; like
#:   the SLO events they are derived control-plane outputs over windowed
#:   telemetry, not scheduler state, and their effect (stricter
#:   admission) is accounted by the SHED/terminal-state rules;
#: * ``WORKER_RESPAWN`` — the supervisor replacing a dead pool worker is
#:   a process-lifecycle action outside any simulator run; its
#:   correctness is validated by the multiprocess runtime's ledger
#:   accounting (orphan requeue, exactly-once terminals), not per-event
#:   core state.
IGNORED_EVENT_KINDS = frozenset(
    {
        EventKind.GOVERNOR,
        EventKind.STATE_TRANSITION,
        EventKind.WAKE_CHECK,
        EventKind.GATING,
        EventKind.FAULT,
        EventKind.SHED,
        EventKind.SUBFRAME_TERMINAL,
        EventKind.SLO_BREACH,
        EventKind.SLO_ALERT,
        EventKind.SLO_RESOLVED,
        EventKind.ARRIVAL,
        EventKind.BACKPRESSURE,
        EventKind.DEGRADE,
        EventKind.RECOVER,
        EventKind.WORKER_RESPAWN,
    }
)

#: Violations recorded (non-strict mode) before the rest are dropped, to
#: bound memory.
MAX_VIOLATIONS = 1000


class InvariantViolation(AssertionError):
    """A scheduler state invariant did not hold."""


class SchedulerInvariantChecker:
    """Validates simulator scheduling state on every emitted event.

    Parameters
    ----------
    strict:
        Raise :class:`InvariantViolation` on the first violation (default).
        With ``strict=False`` violations are collected in ``violations``
        (at most ``MAX_VIOLATIONS``) for inspection and the run continues.
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: list[str] = []
        self.events_checked = 0
        self._sim: Any = None
        self._reset_counters()

    def _reset_counters(self) -> None:
        self._tasks_started = 0
        self._tasks_finished = 0
        self._users_dispatched = 0
        self._users_adopted = 0
        self._users_finished = 0
        self._users_aborted = 0
        self._steals = 0
        self._sf_users: dict[int, int] = {}

    # ------------------------------------------------------------ observer
    def on_run_start(self, sim) -> None:
        self._sim = sim
        self._reset_counters()
        self.violations.clear()
        self.events_checked = 0

    def __call__(self, event) -> None:
        self.events_checked += 1
        if self._sim is None:
            self._record(
                f"t={event.t}: {event.kind.value} event before on_run_start "
                "(the checker validates MachineSimulator runs only)"
            )
            return
        kind = event.kind
        if kind is EventKind.TASK_START:
            self._tasks_started += 1
            self._check_task_start(event)
        elif kind is EventKind.TASK_FINISH:
            self._tasks_finished += 1
        elif kind is EventKind.STEAL:
            self._steals += 1
        elif kind is EventKind.USER_START:
            self._users_adopted += 1
        elif kind is EventKind.USER_FINISH:
            self._users_finished += 1
        elif kind is EventKind.USER_RETRY:
            # A retried user's earlier adoption is void: the user went
            # back to the queue, so it must not count as in-flight.
            self._users_adopted -= 1
        elif kind is EventKind.USER_ABORTED:
            self._users_aborted += 1
            if event.data and event.data.get("was_adopted"):
                self._users_adopted -= 1
        elif kind is EventKind.DISPATCH:
            users = event.data.get("users", 0) if event.data else 0
            self._users_dispatched += users
            self._sf_users[event.data["subframe"]] = users
            self._check_conservation(event.t)
        self._check_state(event.t)

    def on_run_end(self, sim, result) -> None:
        self._check_state(self._engine_now())
        self._check_conservation(self._engine_now())
        self._check_ledger(result.ledger)
        if not result.trace.check_conservation(atol_cycles=2.0):
            self._record(
                "occupancy-trace conservation failed: some window's state "
                "occupancies do not sum to the worker cycle budget"
            )
        self._check_completion_order(sim)

    # ------------------------------------------------------------- checks
    def _engine_now(self) -> int:
        return self._sim._engine.now if self._sim._engine else 0

    def _record(self, message: str) -> None:
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(message)
        if self.strict:
            raise InvariantViolation(message)

    def _check_state(self, t: int) -> None:
        sim = self._sim
        spin = sim._idle_spin
        nap = sim._idle_nap
        disabled = sim._disabled
        if not spin.isdisjoint(nap):
            self._record(
                f"t={t}: idle sets overlap: cores {sorted(spin & nap.keys())} "
                "are in both _idle_spin and _idle_nap"
            )
        if not spin.isdisjoint(disabled):
            self._record(
                f"t={t}: idle sets overlap: cores {sorted(spin & disabled)} "
                "are in both _idle_spin and _disabled"
            )
        if not disabled.isdisjoint(nap):
            self._record(
                f"t={t}: idle sets overlap: cores {sorted(disabled & nap.keys())} "
                "are in both _disabled and _idle_nap"
            )
        for index in spin:
            core = sim._cores[index]
            if core.state is not CoreState.SPIN or core.busy:
                self._record(
                    f"t={t}: core {index} registered in _idle_spin but is "
                    f"{core.state.value}{' and busy' if core.busy else ''}"
                )
        for index in nap:
            core = sim._cores[index]
            if core.state is not CoreState.NAP or core.busy:
                self._record(
                    f"t={t}: core {index} registered in _idle_nap but is "
                    f"{core.state.value}{' and busy' if core.busy else ''}"
                )
        for index in disabled:
            core = sim._cores[index]
            if core.state is not CoreState.DISABLED or core.busy:
                self._record(
                    f"t={t}: core {index} registered in _disabled but is "
                    f"{core.state.value}{' and busy' if core.busy else ''}"
                )
            elif core.job is not None:
                self._record(f"t={t}: disabled core {index} still owns a job")
        for core in sim._cores:
            if core.busy and core.state is not CoreState.COMPUTE:
                self._record(
                    f"t={t}: core {core.index} is executing while in state "
                    f"{core.state.value} (NAP/DISABLED cores must never execute)"
                )

    def _check_ledger(self, ledger) -> None:
        """End of run: every dispatched subframe resolved exactly once."""
        try:
            ledger.check()
        except LedgerError as exc:
            self._record(str(exc))
        for subframe, state, _ in ledger.late_resolutions:
            self._record(
                f"subframe {subframe} resolved a second time ({state.value}); "
                "terminal states are exactly-once"
            )

    def _check_task_start(self, event) -> None:
        sim = self._sim
        core = sim._cores[event.core]
        if core.state is not CoreState.COMPUTE:
            self._record(
                f"t={event.t}: task started on core {event.core} in state "
                f"{core.state.value}"
            )
        if (
            event.core in sim._idle_spin
            or event.core in sim._idle_nap
            or event.core in sim._disabled
        ):
            self._record(
                f"t={event.t}: task started on core {event.core} while it is "
                "still registered in an idle set"
            )

    def _check_conservation(self, t: int) -> None:
        sim = self._sim
        busy = sum(1 for core in sim._cores if core.busy)
        in_flight = self._tasks_started - self._tasks_finished
        if in_flight != busy:
            self._record(
                f"t={t}: task conservation violated: started "
                f"{self._tasks_started} - finished {self._tasks_finished} = "
                f"{in_flight} in flight, but {busy} cores are busy"
            )
        jobs_held = sum(1 for core in sim._cores if core.job is not None)
        queued = len(sim._user_queue)
        accounted = (
            self._users_finished + queued + jobs_held + self._users_aborted
        )
        if self._users_dispatched != accounted:
            self._record(
                f"t={t}: user conservation violated: dispatched "
                f"{self._users_dispatched} != finished {self._users_finished} "
                f"+ queued {queued} + in-flight {jobs_held} "
                f"+ aborted {self._users_aborted}"
            )
        if self._users_adopted != self._users_finished + jobs_held:
            self._record(
                f"t={t}: adopted users {self._users_adopted} != finished "
                f"{self._users_finished} + in-flight {jobs_held} "
                "(retries void adoption; aborts of adopted users must say so)"
            )

    def _check_completion_order(self, sim) -> None:
        # An inversion between subframes j < i is provably bounded by
        # lat[j] - (i - j) * DELTA: subframe i cannot complete before its
        # own dispatch, and j completed lat[j] after its dispatch. Under
        # overload (latency > DELTA) legitimate inversions therefore grow
        # with the backlog, so widen the slack from one DELTA to the
        # observed worst-case latency minus one DELTA; anything beyond
        # that is corrupted completion bookkeeping, not queueing.
        delta = sim.machine.subframe_period_cycles
        completed = [
            index
            for index in range(sim._num_subframes)
            # Skip empty subframes (completion pinned to dispatch) and
            # subframes truncated by the horizon (never completed).
            if self._sf_users.get(index, 0) != 0
            and sim._pending_users[index] == 0
        ]
        max_latency = max(
            (
                int(sim._complete_cycle[i]) - int(sim._dispatch_cycle[i])
                for i in completed
            ),
            default=0,
        )
        slack = max(delta, max_latency - delta)
        running_max = None
        running_index = -1
        for index in completed:
            complete = int(sim._complete_cycle[index])
            if complete < int(sim._dispatch_cycle[index]):
                self._record(
                    f"subframe {index} completed at {complete}, before its "
                    f"own dispatch at {int(sim._dispatch_cycle[index])}"
                )
            if running_max is not None and complete + slack < running_max:
                self._record(
                    f"subframe {index} completed at {complete}, more than "
                    f"{slack} cycles before earlier subframe {running_index} "
                    f"(completed {running_max}): completion order violated"
                )
            if running_max is None or complete > running_max:
                running_max = complete
                running_index = index

    # -------------------------------------------------------------- report
    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        head = (
            f"invariant checker: {self.events_checked} events checked, "
            f"{len(self.violations)} violation(s)"
        )
        if not self.violations:
            return head
        return "\n".join([head, *("  " + v for v in self.violations[:20])])
