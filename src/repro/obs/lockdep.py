"""Runtime lock-order witness (a miniature lockdep).

The static lock-order analysis (``repro lint`` REP501/REP502, see
:mod:`repro.analysis.concurrency`) proves ordering claims about the
acquisition *sites* it can see lexically; this module closes the loop at
runtime: every lock created through :func:`tracked_lock` reports its
actual acquisitions to a process-global :class:`LockOrderWitness`, which
maintains the observed order graph and records an **inversion** the
moment two lock classes are ever taken in both orders (the ABBA shape
that becomes a deadlock under the right interleaving) — even when the
run itself got lucky and never deadlocked.

Naming convention: a tracked lock's name is the static analyzer's
canonical node name, ``ClassName.attr`` (e.g.
``SubframeTracker._lock``), so the runtime graph and the static
graph speak the same language and
:func:`LockOrderWitness.assert_subset_of` can cross-check one against
the other. Locks of the same class share a name deliberately — like the
kernel's lockdep, ordering is checked between lock *classes*, not
instances, which is what lets one observed run generalize.

Overhead discipline: :func:`tracked_lock` returns a plain
``threading.Lock`` whenever the witness is disabled (the default), so
instrumented hot paths pay nothing outside witnessed runs. Enable with
``REPRO_LOCKDEP=1`` in the environment, or programmatically via
:func:`enable` — the tier-1 scheduler/fault test suites do the latter
from an autouse fixture and fail the test on any recorded inversion.
"""

from __future__ import annotations

import os
import threading
from typing import ClassVar, cast

__all__ = [
    "LockdepError",
    "LockOrderWitness",
    "TrackedLock",
    "current_witness",
    "disable",
    "enable",
    "enabled_by_env",
    "tracked_lock",
]

_ENV_VAR = "REPRO_LOCKDEP"


class LockdepError(AssertionError):
    """A lock-order inversion (or witness misuse) was detected."""


class _HeldStacks(threading.local):
    """Per-thread stack of tracked-lock names currently held."""

    def __init__(self) -> None:
        self.names: list[str] = []


class LockOrderWitness:
    """Observes acquisition order between named lock classes.

    Edges are directed: ``(a, b)`` means "``b`` was acquired while ``a``
    was held". An inversion is recorded when both ``(a, b)`` and
    ``(b, a)`` have been observed (in any threads, at any time), when a
    lock class is re-acquired while already held, or when an observed
    edge contradicts a declared static ordering passed via ``declared``.

    ``strict=True`` raises :class:`LockdepError` at the offending
    acquisition; the default records the inversion for a later
    :meth:`check` (test teardown), which keeps the failing run intact
    for debugging.
    """

    _GUARDED_BY: ClassVar[dict[str, str]] = {
        "_edges": "_mutex",
        "_inversions": "_mutex",
    }

    def __init__(
        self,
        declared: set[tuple[str, str]] | None = None,
        strict: bool = False,
    ) -> None:
        self.strict = strict
        self.declared = set(declared or ())
        self._mutex = threading.Lock()  # meta-lock; deliberately untracked
        self._edges: dict[tuple[str, str], str] = {}
        self._inversions: list[str] = []
        self._held = _HeldStacks()

    # --------------------------------------------------------- acquisition
    def before_acquire(self, name: str) -> None:
        """Record edges from every held lock to ``name``; detect inversions.

        Called *before* the real acquire so an actual ABBA deadlock is
        reported as an inversion instead of hanging the test forever.
        """
        held = self._held.names
        if not held:
            return
        where = threading.current_thread().name
        problems: list[str] = []
        with self._mutex:
            for prior in held:
                edge = (prior, name)
                if prior == name:
                    problems.append(
                        f"lock class '{name}' re-acquired while already "
                        f"held (thread {where})"
                    )
                    continue
                first = self._edges.setdefault(edge, where)
                inverse = self._edges.get((name, prior))
                if inverse is not None:
                    problems.append(
                        f"lock-order inversion: '{prior}' -> '{name}' "
                        f"(thread {where}) but also '{name}' -> "
                        f"'{prior}' (thread {inverse})"
                    )
                elif (name, prior) in self.declared:
                    problems.append(
                        f"observed '{prior}' -> '{name}' (thread {where}) "
                        f"contradicts the declared lock-order "
                        f"'{name}' -> '{prior}'"
                    )
                del first
            self._inversions.extend(problems)
        if problems and self.strict:
            raise LockdepError(problems[0])

    def after_acquire(self, name: str) -> None:
        self._held.names.append(name)

    def after_release(self, name: str) -> None:
        held = self._held.names
        # Out-of-order release is legal (hand-over-hand); drop the most
        # recent matching entry.
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                return

    # -------------------------------------------------------------- queries
    @property
    def edges(self) -> dict[tuple[str, str], str]:
        """Observed order edges: ``(held, acquired) -> thread name``."""
        with self._mutex:
            return dict(self._edges)

    @property
    def inversions(self) -> list[str]:
        with self._mutex:
            return list(self._inversions)

    def check(self) -> None:
        """Raise :class:`LockdepError` if any inversion was recorded."""
        with self._mutex:
            problems = list(self._inversions)
        if problems:
            raise LockdepError(
                f"{len(problems)} lock-order inversion(s): "
                + "; ".join(problems)
            )

    def assert_subset_of(self, allowed: set[tuple[str, str]]) -> None:
        """Fail unless every observed edge is statically known.

        ``allowed`` is the union of the static analyzer's observed edges
        and the committed ``# lock-order:`` declarations — a runtime edge
        outside it means the static pass has a blind spot (typically an
        acquisition behind a call chain it could not resolve).
        """
        with self._mutex:
            unknown = sorted(set(self._edges) - allowed)
        if unknown:
            listing = ", ".join(f"{a} -> {b}" for a, b in unknown)
            raise LockdepError(
                f"runtime acquisition order(s) unknown to the static "
                f"lock graph: {listing}; add a '# lock-order:' "
                "declaration or fix the analyzer's blind spot"
            )

    def reset(self) -> None:
        with self._mutex:
            self._edges.clear()
            self._inversions.clear()


class TrackedLock:
    """A ``threading.Lock`` that reports acquisitions to the witness.

    Consults :func:`current_witness` at acquisition time, so a lock
    created while the witness was enabled degrades to plain behaviour
    (one ``None`` check) after :func:`disable`.
    """

    __slots__ = ("name", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        witness = _WITNESS
        if witness is not None:
            witness.before_acquire(self.name)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired and witness is not None:
            witness.after_acquire(self.name)
        return acquired

    def release(self) -> None:
        witness = _WITNESS
        if witness is not None:
            witness.after_release(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"TrackedLock({self.name!r}, locked={self.locked()})"


#: The process-global witness; ``None`` while lockdep is disabled.
_WITNESS: LockOrderWitness | None = None


def enabled_by_env() -> bool:
    return os.environ.get(_ENV_VAR, "") not in ("", "0")


def current_witness() -> LockOrderWitness | None:
    return _WITNESS


def enable(
    declared: set[tuple[str, str]] | None = None, strict: bool = False
) -> LockOrderWitness:
    """Install (and return) a fresh process-global witness."""
    global _WITNESS
    _WITNESS = LockOrderWitness(declared=declared, strict=strict)
    return _WITNESS


def disable() -> None:
    global _WITNESS
    _WITNESS = None


def tracked_lock(name: str) -> threading.Lock:
    """A lock participating in lockdep when the witness is active.

    Returns a plain ``threading.Lock`` when lockdep is off (the common
    case — zero steady-state overhead), a :class:`TrackedLock` when a
    witness is installed or ``REPRO_LOCKDEP=1`` is set. ``name`` must be
    the static analyzer's canonical node name (``ClassName.attr``) so
    runtime and static graphs line up.
    """
    global _WITNESS
    if _WITNESS is None and enabled_by_env():
        _WITNESS = LockOrderWitness()
    if _WITNESS is None:
        return threading.Lock()
    return cast(threading.Lock, TrackedLock(name))
