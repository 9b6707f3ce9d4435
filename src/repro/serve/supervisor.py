"""Supervised worker respawn: bounded self-healing for the process pool.

Real eNodeB stacks run as long-lived supervised services (srsLTE-style):
a dead signal-processing worker is restarted, not taken as a reason to
fail the whole base station. The multiprocess runtime's historical
policy is fail-stop — an unexpected worker death aborts all pending work
— which is the right *default* for reproducible chaos campaigns but the
wrong operational posture for ``repro serve``. This module provides the
opt-in alternative:

* :class:`RespawnPolicy` — the knobs: exponential backoff between a
  worker slot's consecutive deaths, a **restart budget per rolling
  window**, and an optional per-worker heartbeat timeout (a worker busy
  on one task longer than the timeout is presumed wedged and killed, so
  the standard death path requeues its work and respawns the slot);
* :class:`WorkerSupervisor` — the bookkeeping state machine the runtime
  consults on every death: *when* (if ever) each dead slot may be
  respawned. When the rolling budget is exhausted the supervisor trips
  **crash-loop detection** and permanently degrades to fail-stop — no
  further respawns are scheduled and the runtime reverts to its
  historical abort semantics.

The supervisor never touches processes itself; the runtime owns spawn
and reap. All methods are called from the runtime's single pump thread
(the serve loop task or the draining caller), so no lock is needed.
Ledger accounting is unaffected either way: orphaned subframes are
requeued through the runtime's existing bounded-retry path and every
subframe still resolves exactly once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..faults.watchdog import ns_from_s

__all__ = ["RespawnPolicy", "WorkerSupervisor"]


@dataclass(frozen=True)
class RespawnPolicy:
    """Respawn budget and backoff shape for one worker pool."""

    #: Respawns allowed per rolling ``window_s`` before crash-loop
    #: detection trips and the pool degrades to fail-stop.
    max_respawns: int = 8
    #: Rolling budget window in seconds.
    window_s: float = 30.0
    #: Backoff before the first respawn of a slot (seconds); doubles per
    #: consecutive death of the same slot.
    backoff_initial_s: float = 0.05
    #: Backoff ceiling (seconds).
    backoff_max_s: float = 2.0
    #: Kill a worker busy on a single task longer than this (seconds);
    #: ``None`` disables heartbeat-based hang detection.
    heartbeat_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_respawns < 1:
            raise ValueError("max_respawns must be >= 1")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.backoff_initial_s <= 0:
            raise ValueError("backoff_initial_s must be positive")
        if self.backoff_max_s < self.backoff_initial_s:
            raise ValueError("backoff_max_s must be >= backoff_initial_s")
        if (
            self.heartbeat_timeout_s is not None
            and self.heartbeat_timeout_s <= 0
        ):
            raise ValueError("heartbeat_timeout_s must be positive")


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

    def __init__(self, policy: RespawnPolicy, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.policy = policy
        self.num_workers = num_workers
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
        horizon = now_ns - ns_from_s(self.policy.window_s)
        window = self._window
        while window and window[0] <= horizon:
            window.popleft()
        return len(window) < self.policy.max_respawns

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
            ns_from_s(self.policy.backoff_initial_s) << exponent
            if exponent < 60
            else ns_from_s(self.policy.backoff_max_s),
            ns_from_s(self.policy.backoff_max_s),
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
    def pending(self) -> bool:
        """True while any dead slot still has a scheduled respawn."""
        return bool(self._due_ns)

    @property
    def heartbeat_timeout_ns(self) -> int | None:
        timeout = self.policy.heartbeat_timeout_s
        return ns_from_s(timeout) if timeout is not None else None

    def last_backoff_s(self, worker_id: int) -> float:
        """Backoff that preceded the slot's most recent respawn (s)."""
        return self._backoff_ns.get(worker_id, 0) / 1e9

    def summary(self) -> dict:
        """Report section (aggregated per cell by the serve loop)."""
        return {
            "deaths": self.deaths,
            "respawns": self.respawns,
            "fail_stop": self.fail_stop,
            "max_respawns": self.policy.max_respawns,
            "window_s": self.policy.window_s,
        }
