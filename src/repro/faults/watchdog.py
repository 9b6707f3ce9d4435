"""Resilience configuration, hang guards, and failure records.

Home of the pieces both backends (and the CLI) share:

* :class:`ResilienceConfig` — retry budgets, per-subframe deadlines and
  the drain timeout, consumed by every :mod:`repro.sched` runtime through
  its :class:`~repro.sched.core.SubframeTracker` (wall-clock deadlines,
  checked on each ``poll``) and by
  :class:`~repro.sim.machine.MachineSimulator` (cycle deadlines,
  deterministic aborts);
* the monotonic clock helpers (:func:`monotonic_ns`, :func:`ns_from_s`)
  — the *single* clock the runtimes' deadline and drain paths use, so a
  deadline computed in nanoseconds is never compared against a
  ``time.monotonic()`` float from a different code path, and
  second-to-nanosecond conversion never truncates;
* :func:`hang_guard` — a ``faulthandler``-based last line of defence: if
  the guarded block wedges past its timeout, every thread's traceback is
  dumped to stderr and the process exits, so no CLI entry point can hang
  silently forever;
* :class:`WorkerFailure` / :exc:`RuntimeHung` — how the threaded runtime
  reports dead workers and expired drains *loudly* instead of blocking
  result collection.
"""

from __future__ import annotations

import faulthandler
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "JOIN_TIMEOUT_S",
    "NS_PER_S",
    "ResilienceConfig",
    "RuntimeHung",
    "WATCHDOG_POLL_S",
    "WorkerFailure",
    "hang_guard",
    "monotonic_ns",
    "ns_from_s",
]

#: Nanoseconds per second, as an int so conversions stay exact.
NS_PER_S = 1_000_000_000

#: The longest one ``poll`` blocks while a runtime waits (``drain``,
#: pool start-up, pending respawns) before re-checking its deadlines.
WATCHDOG_POLL_S = 0.02

#: How long a runtime's ``close`` waits for each worker thread or process
#: to exit, and pool start-up for its workers' ``ready``; read at each use.
JOIN_TIMEOUT_S = 10.0


def monotonic_ns() -> int:
    """The runtimes' one deadline clock (``time.monotonic_ns``).

    On Linux ``CLOCK_MONOTONIC`` is system-wide, so timestamps taken with
    this helper are comparable *across processes* — the property the
    multiprocess runtime's cross-process span timeline relies on.
    """
    return time.monotonic_ns()


def ns_from_s(seconds: float) -> int:
    """Convert seconds to integer nanoseconds without truncation drift.

    ``int(2.3 * 1e9)`` floors the float artefact to ``2_299_999_999`` —
    one tick *early* at the deadline boundary; rounding keeps the
    converted deadline within half a nanosecond of the configured value.
    """
    return round(seconds * NS_PER_S)


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs for the fault-tolerance layer.

    ``deadline_s`` (threaded, wall seconds) and ``deadline_subframes``
    (simulator, DELTA multiples) bound how long one dispatched subframe
    may stay unresolved before the watchdog aborts it; ``None`` disables
    the deadline. ``max_retries`` bounds per-user requeues after an
    injected or real fault. ``drain_timeout_s`` turns an indefinitely
    blocking drain into a loud :exc:`RuntimeHung`.
    """

    max_retries: int = 1
    deadline_s: float | None = None
    deadline_subframes: float | None = None
    drain_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive or None")
        if self.deadline_subframes is not None and self.deadline_subframes <= 0:
            raise ValueError("deadline_subframes must be positive or None")
        if self.drain_timeout_s is not None and self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be positive or None")


class RuntimeHung(RuntimeError):
    """A drain/join exceeded its timeout: the runtime is wedged."""


@dataclass(frozen=True)
class WorkerFailure:
    """One worker thread's fatal failure, propagated to the runtime."""

    worker_id: int
    error: str
    fatal: bool = False
    injected: bool = False

    def __str__(self) -> str:
        flavor = "injected" if self.injected else "unexpected"
        return f"worker {self.worker_id}: {flavor} {self.error}"


@contextmanager
def hang_guard(timeout_s: float):
    """Dump all-thread tracebacks and exit after ``timeout_s``.

    ``repro.cli.main`` arms it for ``--timeout``. Re-entrant use simply
    rearms the (process-wide) faulthandler timer; the guard is cancelled on
    exit from the outermost block that armed it.
    """
    if timeout_s <= 0:
        raise ValueError(f"timeout must be positive, got {timeout_s}")
    faulthandler.dump_traceback_later(timeout_s, exit=True, file=sys.stderr)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
