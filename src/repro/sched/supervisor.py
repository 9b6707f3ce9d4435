"""Supervised worker respawn: bounded self-healing for the process pool.

Real eNodeB stacks run as long-lived supervised services (srsLTE-style):
a dead signal-processing worker is restarted, not taken as a reason to
fail the whole base station. Every multiprocess pool runs under one
:class:`WorkerSupervisor`: the bookkeeping state machine the runtime
consults on every death, deciding *when* (if ever) each dead slot may be
respawned. A slot's consecutive deaths back off exponentially from
:data:`BACKOFF_INITIAL_S` up to :data:`BACKOFF_MAX_S`, and the pool may
respawn :data:`MAX_RESPAWNS` times per rolling :data:`WINDOW_S`. When
that budget is exhausted the supervisor trips **crash-loop detection**
and the pool fails stop: no further respawns are scheduled, pending work
is aborted and ``drain()`` raises. A slot that keeps crashing is thus
reported after at most ~7 s of backoff (0.05 + 0.1 + ... + 2 + 2 s).

The supervisor never touches processes itself; the runtime owns spawn
and reap. All methods are called from the runtime's single pump thread
(the serve loop task or the draining caller), so no lock is needed.
Ledger accounting is unaffected: orphaned subframes are
requeued through the runtime's existing bounded-retry path and every
subframe still resolves exactly once.
"""

from __future__ import annotations

from collections import deque

from ..faults.watchdog import ns_from_s

__all__ = [
    "BACKOFF_INITIAL_S",
    "BACKOFF_MAX_S",
    "MAX_RESPAWNS",
    "WINDOW_S",
    "WorkerSupervisor",
]

#: Respawns allowed per rolling :data:`WINDOW_S` before crash-loop
#: detection trips and the pool fails stop.
MAX_RESPAWNS = 8
#: Rolling budget window in seconds.
WINDOW_S = 30.0
#: Backoff before the first respawn of a slot (seconds); doubles per
#: consecutive death of the same slot.
BACKOFF_INITIAL_S = 0.05
#: Backoff ceiling (seconds).
BACKOFF_MAX_S = 2.0


class WorkerSupervisor:
    """Decides when each dead worker slot may be respawned.

    One instance supervises one pool. The runtime calls
    :meth:`record_death` when a slot dies, polls :meth:`respawn_due`
    during pumping, and confirms with :meth:`note_respawn` once the
    replacement process is up. :meth:`note_progress` resets a slot's
    consecutive-death backoff after it completes real work, so a slot
    that crashes, heals, and crashes again much later starts from the
    initial backoff rather than the accumulated one.
    """

    def __init__(self, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.deaths = 0
        self.respawns = 0
        #: Crash-loop detection tripped: permanently fail-stop.
        self.fail_stop = False
        self._consecutive = [0] * num_workers
        self._due_ns: dict[int, int] = {}
        self._backoff_ns: dict[int, int] = {}
        self._window: deque[int] = deque()

    # ------------------------------------------------------------- budget
    def _budget_left(self, now_ns: int) -> bool:
        horizon = now_ns - ns_from_s(WINDOW_S)
        window = self._window
        while window and window[0] <= horizon:
            window.popleft()
        return len(window) < MAX_RESPAWNS

    # ------------------------------------------------------------- events
    def record_death(self, worker_id: int, now_ns: int) -> int | None:
        """Record one death; returns the scheduled respawn time (ns).

        Returns ``None`` when no respawn will happen — the rolling budget
        is exhausted (crash loop, now permanently fail-stop) or it
        already was.
        """
        self.deaths += 1
        self._consecutive[worker_id] += 1
        if self.fail_stop:
            return None
        if not self._budget_left(now_ns):
            # Budget exhausted inside the window: the pool is crash
            # looping. Degrade to fail-stop for the rest of the run —
            # a supervisor that keeps feeding workers to a hard fault
            # just burns the machine.
            self.fail_stop = True
            self._due_ns.clear()
            return None
        exponent = max(0, self._consecutive[worker_id] - 1)
        backoff_ns = min(
            ns_from_s(BACKOFF_INITIAL_S) << exponent
            if exponent < 60
            else ns_from_s(BACKOFF_MAX_S),
            ns_from_s(BACKOFF_MAX_S),
        )
        self._backoff_ns[worker_id] = backoff_ns
        due = now_ns + backoff_ns
        self._due_ns[worker_id] = due
        return due

    def respawn_due(self, worker_id: int) -> int | None:
        """Scheduled respawn time for a dead slot, or ``None``."""
        return self._due_ns.get(worker_id)

    def note_respawn(self, worker_id: int, now_ns: int) -> None:
        """The replacement process for ``worker_id`` is up."""
        self._due_ns.pop(worker_id, None)
        self._window.append(now_ns)
        self.respawns += 1

    def note_progress(self, worker_id: int) -> None:
        """A slot completed real work: reset its consecutive-death run."""
        self._consecutive[worker_id] = 0

    # ------------------------------------------------------------ queries
    @property
    def pending(self) -> int:
        """How many dead slots still have a scheduled respawn."""
        return len(self._due_ns)

    def last_backoff_s(self, worker_id: int) -> float:
        """Backoff that preceded the slot's most recent respawn (s)."""
        return self._backoff_ns.get(worker_id, 0) / 1e9

    def summary(self) -> dict:
        """Report section (aggregated per cell by the serve loop)."""
        return {
            "deaths": self.deaths,
            "respawns": self.respawns,
            "pending": self.pending,
            "fail_stop": self.fail_stop,
            "max_respawns": MAX_RESPAWNS,
            "window_s": WINDOW_S,
        }
