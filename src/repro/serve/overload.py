"""SLO-driven adaptive admission: AIMD load shedding with hysteresis.

The static admission controller (:mod:`repro.faults.admission`) sheds
against a *fixed* activity budget; it cannot tell that the budget itself
is wrong — e.g. an mMTC synchronized surge ("Subframe resource
optimization for massive machine device access in LTE networks"-style)
pushing sustained deadline misses even though each individual subframe's
estimate fit. This module closes that loop: the
:class:`OverloadController` samples the PR 8
:class:`~repro.obs.slo.SLOEngine` burn-rate signals once per measurement
window and drives a serve-wide **load factor** in ``(0, 1]`` with the
classic AIMD rule:

* **multiplicative decrease** (×0.5, down to a floor of 0.05) while a
  watched target (miss rate, shed rate) burns at or above 2.0 (entering
  this state emits one ``DEGRADE`` event);
* **additive increase** (+0.1) back toward 1.0, but only after 3
  *consecutive* windows at or below burn 1.0 — the hysteresis band
  ``(1.0, 2.0)`` counts for neither side, so a burn rate oscillating
  around either threshold cannot flap the controller (one ``RECOVER``
  event fires when the factor reaches 1.0).

These thresholds are the module's constants; the controller runs one
configuration.

The serve loop applies the factor in two places: it *inflates* the
Eq. 3-4 activity estimate (``estimate / load_factor``) so admission
sheds earlier, and it *shrinks* each cell's effective backpressure
threshold (``queue_depth * load_factor``) so the door closes sooner
(under ``--backpressure block`` the producer waits for that effective
depth, read again on every wake). mMTC surge users — the tail the burst
process appends beyond the base rate — are shed first while degraded,
before admission even runs.
"""

from __future__ import annotations

from typing import Any, Callable

from ..obs.events import Event, EventKind
from ..obs.slo import SLOEngine

__all__ = ["AimdController", "OverloadController"]


#: Multiplicative cut applied to the load factor per burning window.
DECREASE = 0.5
#: Additive recovery step per clean window (after the hold).
INCREASE = 0.1
#: Lowest load factor the controller will cut to (keeps it > 0).
FLOOR = 0.05
#: Burn rate at/above which a window counts as overloaded.
DEGRADE_BURN = 2.0
#: Burn rate at/below which a window counts as clean. The gap up to
#: :data:`DEGRADE_BURN` is the hysteresis band in which the controller
#: holds its current state.
RECOVER_BURN = 1.0
#: Consecutive clean windows required before recovery starts.
HOLD_WINDOWS = 3
#: SLO targets whose burn the controller reacts to. The latency/power
#: targets are deliberately excluded: latency burn is what the
#: *miss-rate* target already confirms over a window, and power is a
#: budget, not an overload signal.
WATCHED_TARGETS = ("miss-rate", "shed-rate")


class AimdController:
    """The pure AIMD state machine (one :meth:`observe` per window).

    ``load_factor`` starts at 1.0 and stays in ``[FLOOR, 1.0]``; it only
    moves inside :meth:`observe`, so callers on a single thread need no
    lock. ``observe`` returns ``"degrade"`` when the controller *enters*
    the degraded state, ``"recover"`` when it fully leaves it, and
    ``None`` otherwise — sustained burn keeps cutting without re-emitting.
    """

    def __init__(self) -> None:
        self.load_factor = 1.0
        self.degraded = False
        self.degrade_count = 0
        self.recover_count = 0
        self._clean_streak = 0

    def observe(self, burn: float) -> str | None:
        """Fold one window's burn rate in; returns the transition, if any."""
        if burn < 0.0:
            raise ValueError("burn rate must be >= 0")
        if burn >= DEGRADE_BURN:
            self._clean_streak = 0
            entered = not self.degraded
            self.degraded = True
            self.load_factor = max(FLOOR, self.load_factor * DECREASE)
            if entered:
                self.degrade_count += 1
                return "degrade"
            return None
        if not self.degraded:
            return None
        if burn <= RECOVER_BURN:
            self._clean_streak += 1
            if self._clean_streak >= HOLD_WINDOWS:
                self.load_factor = min(1.0, self.load_factor + INCREASE)
                if self.load_factor >= 1.0:
                    self.degraded = False
                    self._clean_streak = 0
                    self.recover_count += 1
                    return "recover"
        else:
            # Inside the hysteresis band: neither clean nor burning.
            # Resetting the streak is what prevents boundary flapping.
            self._clean_streak = 0
        return None


class OverloadController:
    """Bridge from :class:`SLOEngine` burn signals to serve admission.

    Driven from the serve loop thread only (one :meth:`maybe_update` per
    ``SUBFRAME_TERMINAL``); it samples the engine once per *completed
    measurement window* — the same cadence the engine's own alerting
    evaluates on — takes the worst burn across :data:`WATCHED_TARGETS`, and
    feeds it to the AIMD state machine. Transitions are emitted as
    ``DEGRADE``/``RECOVER`` events through ``sink``.
    """

    def __init__(
        self,
        engine: SLOEngine,
        sink: Callable[[Event], None] | None = None,
    ) -> None:
        self.engine = engine
        self.aimd = AimdController()
        self.sink = sink
        self.transitions: list[dict[str, Any]] = []
        self._last_window: int | None = None

    # ------------------------------------------------------------ signals
    @property
    def load_factor(self) -> float:
        return self.aimd.load_factor

    @property
    def degraded(self) -> bool:
        return self.aimd.degraded

    def admission_factor(self) -> float:
        """Multiplier for the Eq. 3-4 activity estimate (>= 1.0).

        Dividing by the load factor inflates the estimate, so a degraded
        controller makes admission strictly more conservative.
        """
        return 1.0 / self.aimd.load_factor

    def effective_queue_depth(self, queue_depth: int) -> int:
        """Per-cell backpressure threshold under the current factor."""
        if not self.aimd.degraded:
            return queue_depth
        return max(1, int(round(queue_depth * self.aimd.load_factor)))

    # ------------------------------------------------------------- update
    def _worst_burn(self) -> tuple[float, str]:
        burn, name = 0.0, ""
        rates = self.engine.burn_rates()
        for target in WATCHED_TARGETS:
            rate = rates.get(target)
            if rate is not None and rate >= burn:
                burn, name = rate, target
        return burn, name

    def maybe_update(self, t: float) -> str | None:
        """Re-observe if the measurement window advanced since last call."""
        window = self.engine.window_index
        if window is None or window == self._last_window:
            return None
        self._last_window = window
        burn, slo_name = self._worst_burn()
        action = self.aimd.observe(burn)
        if action is None:
            return None
        payload = {
            "load_factor": self.aimd.load_factor,
            "burn": burn,
            "slo": slo_name,
        }
        self.transitions.append({"action": action, "t": t, **payload})
        if self.sink is not None:
            if action == "degrade":
                self.sink(Event(EventKind.DEGRADE, t, -1, payload))
            else:
                self.sink(Event(EventKind.RECOVER, t, -1, payload))
        return action

    # ------------------------------------------------------------- report
    def summary(self) -> dict:
        """The record's ``adaptive`` section (``repro-serve/2``)."""
        return {
            "load_factor": self.aimd.load_factor,
            "degraded": self.aimd.degraded,
            "degrades": self.aimd.degrade_count,
            "recovers": self.aimd.recover_count,
            "targets": list(WATCHED_TARGETS),
            "transitions": list(self.transitions),
        }
