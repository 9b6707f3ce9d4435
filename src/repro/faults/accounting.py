"""Terminal-state accounting: every dispatched subframe ends exactly once.

The resilience layer's core promise is that the system never *loses* a
subframe: whatever faults fire, each dispatched subframe reaches exactly
one of four terminal states —

* ``ok`` — every admitted user decoded and passed CRC;
* ``crc_failed`` — decoded, but at least one user's CRC failed (payload
  corruption's graceful-degradation path);
* ``shed`` — the admission controller dropped users/the subframe under
  overload (Eq. 1-4 estimate exceeded the DELTA budget);
* ``aborted`` — a fault or deadline timeout prevented completion.

:class:`SubframeLedger` enforces ``dispatched == ok + crc_failed + shed +
aborted``: the first resolution wins, late duplicate resolutions are
counted separately (a hung worker finishing after its subframe was
deadline-aborted), and :meth:`check` verifies the invariant at end of run.
It is the only record of terminal states, shared by every runtime's
:class:`~repro.sched.core.SubframeTracker`, the simulator (one ledger per
run, ``SimResult.ledger``) and serve (one per run, which its cells'
runtimes write into), and is thread-safe.
"""

from __future__ import annotations

import enum
import threading
from typing import ClassVar

__all__ = ["TerminalState", "LedgerError", "SubframeLedger"]


class TerminalState(str, enum.Enum):
    """The four terminal states of a dispatched subframe."""

    OK = "ok"
    CRC_FAILED = "crc_failed"
    SHED = "shed"
    ABORTED = "aborted"


class LedgerError(AssertionError):
    """The terminal-state accounting invariant did not hold."""


class SubframeLedger:
    """Tracks each dispatched subframe to its single terminal state.

    Worker threads resolve subframes concurrently with the watchdog, so
    every access goes through ``lock`` (enforced statically by ``repro
    lint``'s REP101 rule via the ``_GUARDED_BY`` map).
    """

    _GUARDED_BY: ClassVar[dict[str, str]] = {
        "_dispatched": "lock",
        "_resolved": "lock",
        "_late": "lock",
    }

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self._dispatched: dict[int, int] = {}  # subframe -> user count
        self._resolved: dict[int, tuple[TerminalState, str]] = {}
        self._late: list[tuple[int, TerminalState, str]] = []

    # ------------------------------------------------------------ recording
    def dispatch(self, subframe_index: int, users: int) -> None:
        """Register one dispatched subframe (before any outcome is known)."""
        with self.lock:
            if subframe_index in self._dispatched:
                raise LedgerError(
                    f"subframe {subframe_index} dispatched twice"
                )
            self._dispatched[subframe_index] = users

    def resolve(
        self, subframe_index: int, state: TerminalState, reason: str = ""
    ) -> bool:
        """Record a terminal state; returns False for late duplicates.

        The first resolution wins. A second resolution is *not* an error at
        call time — a worker that wakes from a hang legitimately tries to
        complete a subframe the watchdog already aborted — but it is
        recorded and surfaced via :attr:`late_resolutions`.
        """
        with self.lock:
            if subframe_index not in self._dispatched:
                raise LedgerError(
                    f"subframe {subframe_index} resolved ({state.value}) "
                    "without being dispatched"
                )
            if subframe_index in self._resolved:
                self._late.append((subframe_index, state, reason))
                return False
            self._resolved[subframe_index] = (state, reason)
            return True

    def is_resolved(self, subframe_index: int) -> bool:
        with self.lock:
            return subframe_index in self._resolved

    # -------------------------------------------------------------- queries
    @property
    def dispatched(self) -> int:
        with self.lock:
            return len(self._dispatched)

    @property
    def late_resolutions(self) -> list[tuple[int, TerminalState, str]]:
        with self.lock:
            return list(self._late)

    def state_of(self, subframe_index: int) -> TerminalState | None:
        with self.lock:
            entry = self._resolved.get(subframe_index)
        return entry[0] if entry is not None else None

    def reason_of(self, subframe_index: int) -> str:
        """Why the subframe ended as it did (empty when unresolved or ok)."""
        with self.lock:
            entry = self._resolved.get(subframe_index)
        return entry[1] if entry is not None else ""

    def counts(self) -> dict[str, int]:
        """Terminal-state histogram, always carrying all four keys."""
        with self.lock:
            resolved = list(self._resolved.values())
        out = {state.value: 0 for state in TerminalState}
        for state, _ in resolved:
            out[state.value] += 1
        return out

    def unresolved(self) -> list[int]:
        with self.lock:
            return sorted(set(self._dispatched) - set(self._resolved))

    def summary(self) -> dict:
        """Plain-data snapshot (JSON-serializable, deterministic order)."""
        with self.lock:
            dispatched = len(self._dispatched)
            resolved = {
                index: {"state": state.value, "reason": reason}
                for index, (state, reason) in sorted(self._resolved.items())
            }
            late = len(self._late)
        return {
            "dispatched": dispatched,
            "counts": self.counts(),
            "resolved": resolved,
            "late_resolutions": late,
        }

    # ----------------------------------------------------------- invariants
    def check(self) -> None:
        """Raise :class:`LedgerError` unless the accounting invariant holds:
        every dispatched subframe resolved exactly once and
        ``dispatched == ok + crc_failed + shed + aborted``."""
        missing = self.unresolved()
        if missing:
            raise LedgerError(
                f"{len(missing)} dispatched subframe(s) never reached a "
                f"terminal state: {missing[:10]}"
            )
        counts = self.counts()
        total = sum(counts.values())
        if total != self.dispatched:
            raise LedgerError(
                f"terminal accounting broken: dispatched {self.dispatched} "
                f"!= {' + '.join(f'{k}={v}' for k, v in counts.items())}"
            )

    @property
    def ok(self) -> bool:
        try:
            self.check()
        except LedgerError:
            return False
        return True
