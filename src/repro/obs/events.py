"""Typed scheduler event records.

Every backend emits these through a hook that is ``None`` when no
observer is attached, so disabled tracing costs one attribute load and an
identity check per emission site — no event objects are ever allocated
(gem5-style "zero overhead when off" tracing).

Timestamps are clock cycles for :class:`repro.sim.machine.MachineSimulator`
events and ``time.monotonic_ns()`` for the runtimes' events; the ``clock``
field of the run-level metadata (see ``docs/observability.md``)
disambiguates.
"""

from __future__ import annotations

import enum

__all__ = ["Event", "EventKind", "split_record"]


class EventKind(str, enum.Enum):
    """What happened. Values double as the JSONL ``kind`` field."""

    #: One subframe's users were pushed onto the global user queue.
    DISPATCH = "dispatch"
    #: The policy decided the active-worker target for a subframe (Eq. 5).
    GOVERNOR = "governor"
    #: A core started executing a task (parallel or serial stage). A
    #: subframe's span is DISPATCH → SUBFRAME_TERMINAL; a user's stage
    #: spans are its tasks' (``subframe``, ``user``, ``kernel``) intervals.
    TASK_START = "task-start"
    #: A core finished a task.
    TASK_FINISH = "task-finish"
    #: A core took a task from another job's ready queue (thief FIFO).
    STEAL = "steal"
    #: A core moved between COMPUTE/SPIN/NAP/DISABLED states.
    STATE_TRANSITION = "state-transition"
    #: A napping core woke at a periodic boundary and looked for work.
    WAKE_CHECK = "wake-check"
    #: A core adopted a user from the global queue (became its user thread).
    USER_START = "user-start"
    #: A user's last stage completed.
    USER_FINISH = "user-finish"
    #: The analytic power-gating model changed the powered-core count
    #: (gating groups toggled on/off between consecutive subframes).
    GATING = "gating"
    #: An injected fault fired (payload: ``fault`` kind, target ids).
    FAULT = "fault"
    #: Admission control shed work under overload (payload: ``subframe``,
    #: ``users`` shed, ``estimated_activity`` vs ``budget_activity``).
    SHED = "shed"
    #: A user's processing was retried after a failure (payload:
    #: ``subframe``, ``user``, ``attempt``, ``reason``).
    USER_RETRY = "user-retry"
    #: A user was given up on: retry budget exhausted or its subframe
    #: aborted (payload: ``subframe``, ``user``, ``reason``).
    USER_ABORTED = "user-aborted"
    #: A dispatched subframe reached its single terminal state
    #: (payload: ``subframe``, ``state`` in ok/crc_failed/shed/aborted).
    SUBFRAME_TERMINAL = "subframe-terminal"
    #: An SLO target's fast-window observation exceeded its objective
    #: (payload: ``slo``, ``metric``, ``objective``, ``observed``,
    #: ``burn_fast``, ``burn_slow``).
    SLO_BREACH = "slo-breach"
    #: An SLO alert started firing: fast-window burn rate reached the
    #: target's threshold while the slow window confirms sustained burn
    #: (payload as ``SLO_BREACH``).
    SLO_ALERT = "slo-alert"
    #: A previously firing SLO alert stopped firing (payload as
    #: ``SLO_BREACH``).
    SLO_RESOLVED = "slo-resolved"
    #: One serve-mode subframe arrival landed at a cell (payload:
    #: ``cell``, ``subframe`` global id, ``users`` offered, ``lag_ns``
    #: behind the DELTA cadence, ``queue_depth`` at arrival).
    ARRIVAL = "arrival"
    #: A cell's bounded queue was full at arrival time and the serve
    #: loop applied backpressure — shed the subframe or blocked the
    #: producer (payload: ``cell``, ``subframe``, ``users``,
    #: ``queue_depth``, ``policy``).
    BACKPRESSURE = "backpressure"
    #: The adaptive overload controller entered degraded admission:
    #: sustained SLO burn cut the serve-wide load factor (payload:
    #: ``load_factor`` after the cut, ``burn`` that triggered it,
    #: ``slo`` target name).
    DEGRADE = "degrade"
    #: The adaptive overload controller recovered to full admission
    #: after sustained clean windows (payload: ``load_factor``,
    #: ``burn``, ``slo``).
    RECOVER = "recover"
    #: The supervisor respawned a dead pool worker into its slot
    #: (payload: ``worker``, ``process_id`` of the replacement,
    #: ``respawns`` so far, ``backoff_s`` waited before the respawn).
    WORKER_RESPAWN = "worker-respawn"


class Event:
    """One structured trace record.

    Attributes
    ----------
    kind:
        The :class:`EventKind`.
    t:
        Timestamp (simulator: clock cycles; threaded runtime: ns).
    core:
        Worker index the event concerns, or -1 for machine-level events.
    data:
        Kind-specific payload (see ``docs/observability.md`` for the
        schema), or ``None``.
    """

    __slots__ = ("kind", "t", "core", "data")

    def __init__(
        self,
        kind: EventKind,
        t: int,
        core: int = -1,
        data: dict | None = None,
    ) -> None:
        self.kind = kind
        self.t = t
        self.core = core
        self.data = data

    def to_dict(self) -> dict:
        """Flat dict for JSONL export (payload keys inlined)."""
        record = {"kind": self.kind.value, "t": int(self.t), "core": self.core}
        if self.data:
            record.update(self.data)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.kind.value}, t={self.t}, core={self.core}, {self.data})"


_HEADER = ("kind", "t", "core")


def split_record(record: Event | dict) -> tuple[str, int, int, dict]:
    """``(kind, t, core, payload)`` of a live :class:`Event` or of one
    JSONL record (the flat dict :meth:`Event.to_dict` writes).

    ``kind`` stays a string, so a record of a kind this build does not
    know is split like any other; each reader decides what to do with it.
    """
    if isinstance(record, Event):
        return record.kind.value, record.t, record.core, record.data or {}
    payload = {k: v for k, v in record.items() if k not in _HEADER}
    return (
        str(record.get("kind", "?")),
        int(record.get("t", 0)),
        int(record.get("core", -1)),
        payload,
    )
