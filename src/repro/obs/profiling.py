"""Hierarchical profiling spans: subframe → user → kernel.

The paper's argument rests on knowing where cycles go: per-kernel costs
feed the k_LM estimator (Eqs. 1-4) and per-subframe occupancy feeds the
NAP/PowerGating policies (Eqs. 5-9). :class:`Profiler` reports that
hierarchy from the one fold of the event stream — it *is* a
:class:`~repro.obs.telemetry.TelemetryCollector` — and can keep every
closed :class:`Span`:

* **task spans** — one per executed task, attributed to the Fig. 5
  kernel carried in the ``kernel`` payload field (``chest``, ``combiner``,
  ``symbol``, ``finalize``; the two joins are ``serial`` tasks on the
  simulator and on the threaded runtime); durations are simulated cycles
  on :class:`~repro.sim.machine.MachineSimulator` and wall nanoseconds on
  the runtimes;
* **user spans** — ``user-start`` to ``user-finish``;
* **subframe spans** — ``dispatch`` to the subframe's terminal event,
  scored against the fold's deadline (``IN_FLIGHT_BOUND`` × DELTA).

Durations stay in the backend's native clock; callers convert via
``clock_hz`` (bound automatically from the simulator in ``on_run_start``).
"""

from __future__ import annotations

from typing import Any

from ..uplink.tasks import KERNEL_KINDS
from .telemetry import TelemetryCollector

__all__ = ["Profiler", "Span"]


class Span:
    """One closed profiling span in the subframe → user → kernel hierarchy.

    ``begin``/``end`` are in the emitting backend's native clock (cycles
    or nanoseconds); ``cat`` is ``"subframe"``, ``"user"`` or ``"task"``;
    ``data`` is the payload of the event that closed the span.
    """

    __slots__ = ("name", "cat", "core", "begin", "end", "data")

    def __init__(
        self,
        name: str,
        cat: str,
        core: int,
        begin: int,
        end: int,
        data: dict | None = None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.core = core
        self.begin = begin
        self.end = end
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.cat}/{self.name}, core={self.core}, "
            f"[{self.begin}, {self.end}))"
        )


class Profiler(TelemetryCollector):
    """The fold, read as per-kernel breakdowns, plus the optional spans.

    Parameters
    ----------
    keep_spans:
        Retain every closed :class:`Span` in ``spans`` (default). Disable
        for long runs where only the aggregates matter.
    """

    def __init__(self, keep_spans: bool = True) -> None:
        super().__init__()
        self.keep_spans = keep_spans
        self.spans: list[Span] = []

    # ------------------------------------------------------------ closers
    def _task_finish(self, event: Any, data: dict) -> float | None:
        duration = super()._task_finish(event, data)
        if duration is not None and self.keep_spans:
            self.spans.append(
                Span(data.get("kernel") or "task", "task", event.core,
                     event.t - duration, event.t, data)
            )
        return duration

    def _user_finish(self, event: Any, data: dict) -> tuple | None:
        opened = super()._user_finish(event, data)
        if opened is not None and self.keep_spans:
            begin, core = opened
            self.spans.append(
                Span(f"user {data.get('user', -1)}", "user", core, begin,
                     event.t, data)
            )
        return opened

    def _terminal(self, event: Any, data: dict) -> float | None:
        begin = super()._terminal(event, data)
        if begin is not None and self.keep_spans:
            self.spans.append(
                Span(f"subframe {data.get('subframe', -1)}", "subframe", -1,
                     begin, event.t, data)
            )
        return begin

    # -------------------------------------------------------------- report
    def kernel_breakdown(self, source: str = "tasks") -> dict[str, dict]:
        """Per-kernel task totals in Fig. 5 stage order, on every backend.

        Each entry carries ``count``/``total``/``mean``/``stolen`` plus
        ``share`` of the summed total. ``source`` accepts only
        ``"tasks"``, the one view (``perf/layers.py`` still names it).
        """
        if source != "tasks":
            raise ValueError(f"unknown breakdown source {source!r}")
        stats = {
            name[len("kernel_"):]: sketch
            for name, sketch in self.sketches.items()
            if name.startswith("kernel_")
        }
        order = [k for k in KERNEL_KINDS if k in stats]
        order += sorted(k for k in stats if k not in KERNEL_KINDS)
        grand = sum(stats[k].sum for k in order)
        return {
            k: {
                "count": stats[k].count,
                "total": stats[k].sum,
                "mean": stats[k].mean(),
                "stolen": self.counters.get("stolen_" + k, 0),
                "share": stats[k].sum / grand if grand else 0.0,
            }
            for k in order
        }

    def summary(self) -> dict:
        """Nested plain-data summary (JSON-serializable)."""
        return {
            "clock_hz": self.clock_hz,
            "deadline": self.deadline,
            "kernels": self.kernel_breakdown(),
            "subframes_completed": self.counters.get("subframes", 0),
            "deadline_miss_rate": self.deadline_miss_rate(),
            "per_core_utilization": list(self.per_core_utilization),
            "process_ids": dict(sorted(self.process_ids.items())),
        }
