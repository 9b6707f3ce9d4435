"""Declarative SLO targets with multi-window burn-rate alerting.

An :class:`SLOTarget` names a telemetry metric, an objective, and an
alerting burn rate. The :class:`SLOEngine` wraps a
:class:`~repro.obs.telemetry.TelemetryCollector`, re-evaluates every
target whenever the measurement window advances, and emits ``SLO_*``
events into the trace:

* ``SLO_BREACH`` — the fast-window observation exceeded the objective
  (one event per evaluation while breaching);
* ``SLO_ALERT`` — the *burn rate* (observed / objective) exceeded the
  target's ``alert_burn_rate`` over the fast window **and** is at least
  1.0 over the slow window (the classic multi-window burn-rate rule:
  the fast window catches the spike, the slow window confirms it is not
  a blip);
* ``SLO_RESOLVED`` — a previously firing alert stopped firing.

The engine runs one configuration, the paper's: the four
:data:`TARGETS` over a fast horizon of :data:`FAST_WINDOWS` and a slow
one of :data:`SLOW_WINDOWS` measurement windows. Only the wrapped
collector's window and DELTA can be set.

``slo_report()`` returns the machine-readable section that
``repro run/chaos --json`` embed: per-target observations, burn
rates, breach/alert counts, and the windowed latency/miss/power series
the paper's Figs. 13-16 are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .events import Event, EventKind
from .telemetry import TelemetryCollector

__all__ = [
    "SLOEngine",
    "SLOTarget",
]


@dataclass(frozen=True)
class SLOTarget:
    """One declarative objective over a telemetry metric.

    ``metric`` is one of ``subframe_latency_p99`` (native clock units),
    ``deadline_miss_rate`` / ``shed_rate`` (fractions), or ``power_w``
    (watts). ``objective`` is the upper bound; the observed/objective
    ratio is the *burn rate*, and an alert fires when it reaches
    ``alert_burn_rate`` over the fast window while also burning (>= 1.0)
    over the slow window.
    """

    name: str
    metric: str
    objective: float
    alert_burn_rate: float = 2.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "metric": self.metric,
            "objective": self.objective,
            "alert_burn_rate": self.alert_burn_rate,
        }


#: The paper-grounded targets:
#:
#: * p99 subframe latency within the deadline (objective 0: the engine
#:   substitutes the collector's ``IN_FLIGHT_BOUND`` × DELTA deadline,
#:   the paper's §VI responsiveness bound);
#: * deadline-miss rate <= 1%;
#: * shed rate <= 5% (admission control is a safety valve, not a diet);
#: * mean windowed power within 20 W (Fig. 13-16 territory: between the
#:   paper's NONAP and NAP+IDLE envelopes).
TARGETS = (
    SLOTarget("latency-p99", "subframe_latency_p99", 0.0),
    SLOTarget("miss-rate", "deadline_miss_rate", 0.01, 4.0),
    SLOTarget("shed-rate", "shed_rate", 0.05, 2.0),
    SLOTarget("power-budget", "power_w", 20.0, 1.5),
)

#: The two burn-rate horizons, in measurement windows: with the paper's
#: 100 ms window, 300 ms spike detection confirmed over 1.2 s.
FAST_WINDOWS = 3
SLOW_WINDOWS = 12


class SLOEngine:
    """Evaluate SLO targets over sliding windows of a telemetry stream.

    Acts as an observer: attach it *instead of* (or alongside) the
    wrapped :class:`TelemetryCollector` — it forwards every event to the
    collector first, then re-evaluates whenever the subframe window
    index advances. ``sink`` receives the emitted ``SLO_*`` events
    (e.g. an :class:`~repro.obs.trace.EventRecorder` so alerts land in
    the JSONL trace). It evaluates :data:`TARGETS` over the
    :data:`FAST_WINDOWS`/:data:`SLOW_WINDOWS` horizons.
    """

    def __init__(
        self,
        telemetry: TelemetryCollector | None = None,
        sink: Callable[[Event], None] | None = None,
    ) -> None:
        self.telemetry = telemetry if telemetry is not None else (
            TelemetryCollector()
        )
        self.sink = sink
        self.firing: dict[str, bool] = {t.name: False for t in TARGETS}
        self.breach_counts: dict[str, int] = {
            t.name: 0 for t in TARGETS
        }
        self.alert_counts: dict[str, int] = {t.name: 0 for t in TARGETS}
        self.events: list[Event] = []
        self._last_window: int | None = None

    # ----------------------------------------------------------- observer
    def on_run_start(self, sim: Any) -> None:
        self.telemetry.on_run_start(sim)

    def __call__(self, event: Any) -> None:
        self.telemetry(event)
        # The subframe window index only moves on SUBFRAME_TERMINAL (the
        # sole feeder of the "subframes" ring), so the advance check is
        # gated on it — the common task/span events pay one kind test.
        if event.kind is EventKind.SUBFRAME_TERMINAL:
            window = self.telemetry.ring("subframes").last_index
            if window is not None and window != self._last_window:
                self._last_window = window
                self.evaluate(event.t)

    def on_run_end(self, sim: Any, result: Any) -> None:
        self.telemetry.on_run_end(sim, result)
        self.evaluate(self.telemetry._last_t)

    def merge_shard(self, shard: dict) -> None:
        """Forward a checkpoint's telemetry cut to the wrapped collector."""
        self.telemetry.merge_shard(shard)

    # --------------------------------------------------------- evaluation
    def _objective(self, target: SLOTarget) -> float:
        if target.metric == "subframe_latency_p99" and target.objective <= 0:
            # Deferred objective: the collector's deadline.
            return self.telemetry.deadline
        return target.objective

    def _observe(self, target: SLOTarget, last: int | None) -> float:
        tel = self.telemetry
        metric = target.metric
        if metric == "subframe_latency_p99":
            # The sketch is lifetime-scoped; windowed p99 would need
            # per-window sketches. The windowed max bounds it above and
            # the lifetime p99 below — use the window-max series so the
            # fast window reacts, falling back to the lifetime p99.
            series = tel.ring("latency").series()
            if last is not None:
                series = series[-last:]
            if series:
                return max(e["max"] for e in series)
            return tel.sketch("subframe_latency").quantile(0.99)
        if metric == "deadline_miss_rate":
            return tel.deadline_miss_rate(last)
        if metric == "shed_rate":
            return tel.shed_rate(last)
        return tel.mean_power_w(last)  # "power_w"

    def evaluate(self, t: float) -> None:
        """Re-evaluate every target at time ``t``, emitting SLO events."""
        for target in TARGETS:
            objective = self._objective(target)
            if objective <= 0:
                continue
            fast = self._observe(target, FAST_WINDOWS)
            slow = self._observe(target, SLOW_WINDOWS)
            burn_fast = fast / objective
            burn_slow = slow / objective
            payload = {
                "slo": target.name,
                "metric": target.metric,
                "objective": objective,
                "observed": fast,
                "burn_fast": burn_fast,
                "burn_slow": burn_slow,
            }
            if burn_fast > 1.0:
                self.breach_counts[target.name] += 1
                self._emit(Event(EventKind.SLO_BREACH, t, -1, payload))
            now_firing = (
                burn_fast >= target.alert_burn_rate and burn_slow >= 1.0
            )
            was_firing = self.firing[target.name]
            if now_firing and not was_firing:
                self.alert_counts[target.name] += 1
                self._emit(Event(EventKind.SLO_ALERT, t, -1, payload))
            elif was_firing and not now_firing:
                self._emit(Event(EventKind.SLO_RESOLVED, t, -1, payload))
            self.firing[target.name] = now_firing

    def _emit(self, event: Event) -> None:
        self.events.append(event)
        if self.sink is not None:
            self.sink(event)

    def burn_rates(self) -> dict[str, float]:
        """Current burn rate (observed/objective) per target name.

        Observed over the fast horizon. Targets whose objective resolves
        to zero are omitted. This is the read-only signal surface the
        adaptive admission controller (``repro.serve.overload``) closes
        its loop on — unlike :meth:`evaluate` it mutates no alert state.
        """
        rates: dict[str, float] = {}
        for target in TARGETS:
            objective = self._objective(target)
            if objective <= 0:
                continue
            rates[target.name] = self._observe(target, FAST_WINDOWS) / objective
        return rates

    @property
    def window_index(self) -> int | None:
        """Index of the newest completed-subframe measurement window."""
        return self.telemetry.ring("subframes").last_index

    # ------------------------------------------------------------- report
    def slo_report(self) -> dict:
        """Machine-readable SLO section for run/chaos JSON output."""
        tel = self.telemetry
        latency = tel.sketch("subframe_latency")
        targets = []
        for target in TARGETS:
            objective = self._objective(target)
            observed_fast = self._observe(target, FAST_WINDOWS)
            observed_slow = self._observe(target, SLOW_WINDOWS)
            targets.append(
                {
                    **target.to_dict(),
                    "objective": objective,
                    "observed_fast": observed_fast,
                    "observed_slow": observed_slow,
                    "burn_fast": (
                        observed_fast / objective if objective > 0 else 0.0
                    ),
                    "burn_slow": (
                        observed_slow / objective if objective > 0 else 0.0
                    ),
                    "breaches": self.breach_counts[target.name],
                    "alerts": self.alert_counts[target.name],
                    "firing": self.firing[target.name],
                }
            )
        return {
            "schema": "repro-slo/1",
            "clock": tel.clock,
            "window": tel._window(),
            "fast_windows": FAST_WINDOWS,
            "slow_windows": SLOW_WINDOWS,
            "targets": targets,
            "subframes": tel.counters.get("subframes", 0),
            "deadline_misses": tel.counters.get("deadline_misses", 0),
            "deadline_miss_rate": tel.deadline_miss_rate(),
            "shed_rate": tel.shed_rate(),
            "latency": latency.summary(),
            "latency_windows": tel.ring("latency").series(),
            "miss_windows": tel.ring("deadline_misses").series(),
            "power_windows": tel.power_windows(),
            "mean_power_w": tel.mean_power_w(),
            "terminal_counts": dict(sorted(tel.terminal_counts.items())),
        }
