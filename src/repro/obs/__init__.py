"""Observability and correctness tooling for every execution backend.

Structured event tracing (``events``/``recorder``); the one fold of the
event stream into bounded, mergeable aggregates (``telemetry``:
:class:`TelemetryCollector`), read as per-kernel profiling breakdowns
(``profiling``: :class:`Profiler`), SLO burn rates (``slo``), the live
dashboard (``dashboard``) and the Prometheus exposition (``prometheus``);
Chrome ``trace_event``/Perfetto timeline export (``timeline``); and
gem5-style runtime invariant checking (``invariants``) over
:class:`repro.sim.machine.MachineSimulator` and the
:mod:`repro.sched` runtimes. Attach observers via the ``observers=``
constructor argument of any backend; set ``REPRO_INVARIANTS=1`` to
auto-attach a strict :class:`SchedulerInvariantChecker` to every
simulator run. See ``docs/observability.md`` for the event schema and CLI
usage (``repro trace`` / ``repro metrics`` / ``repro top``).
"""

from .events import Event, EventKind
from .recorder import EventRecorder, read_jsonl
from .telemetry import QuantileSketch, TelemetryCollector, WindowRing
from .invariants import InvariantViolation, SchedulerInvariantChecker
from .profiling import Profiler, Span
from .slo import SLOEngine, SLOTarget
from .dashboard import TraceTailer, render_dashboard, sparkline
from .prometheus import render_prometheus
from .timeline import (
    chrome_trace_events,
    gating_events_from_active_workers,
    write_chrome_trace,
)

__all__ = [
    "Event",
    "EventKind",
    "EventRecorder",
    "InvariantViolation",
    "Profiler",
    "QuantileSketch",
    "SLOEngine",
    "SLOTarget",
    "SchedulerInvariantChecker",
    "Span",
    "TelemetryCollector",
    "TraceTailer",
    "WindowRing",
    "chrome_trace_events",
    "gating_events_from_active_workers",
    "read_jsonl",
    "render_dashboard",
    "render_prometheus",
    "sparkline",
    "write_chrome_trace",
]
