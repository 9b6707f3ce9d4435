"""Chrome ``trace_event`` export of the per-core task timeline.

Converts a structured event stream (live :class:`~repro.obs.events.Event`
objects or JSONL records loaded with :func:`~repro.obs.recorder.read_jsonl`)
into the Trace Event Format consumed by Perfetto and ``chrome://tracing``:

* **scheduler process (pid 1)** — one thread row per core: executed tasks
  (the serial combiner/finalize joins included) as complete (``X``)
  slices named after their Fig. 5 kernel, user spans nested around them,
  steal/wake-check instants;
* **power-states process (pid 2)** — one row per core showing
  compute/spin/nap/disabled segments from ``state-transition`` events
  (the nap/wake timeline of Section V-B);
* **gating process (pid 3)** — the analytic power-gating model's
  ``powered_cores`` counter and group on/off toggles, synthesized from a
  run's per-subframe active-core trace (Eqs. 6-7);
* **machine process (pid 0)** — subframe spans (dispatch → terminal) as
  async slices, the dispatch ``queue_depth`` and governor
  ``target_workers`` counters;
* **worker processes (pid 10+)** — when records carry a ``process_id``
  payload (the multiprocess runtime's worker OS pids), their task/user
  slices move onto one Chrome process lane per pool process, so Perfetto
  shows the true multi-core occupancy.

The exporter pairs no begin/end events itself: every record goes through
a :class:`~repro.obs.profiling.Profiler`, and the slices are its closed
spans. Records with *unknown* event kinds (e.g. a JSONL trace written by
a newer schema, or an older one's retired kinds) are never an error: they
are rendered as generic instant events so old traces and future traces
both stay loadable.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

import numpy as np

from ..power.gating import PowerGatingModel
from .events import Event, EventKind, split_record
from .profiling import Profiler, Span

__all__ = [
    "chrome_trace_events",
    "gating_events_from_active_workers",
    "write_chrome_trace",
]

#: Process ids of the exported rows (stable so diffs stay comparable).
_PID_MACHINE = 0
_PID_SCHED = 1
_PID_POWER = 2
_PID_GATING = 3

#: Records that carry a ``process_id`` payload (the multiprocess
#: runtime's worker OS pids) get one Chrome process per pid, allocated
#: upward from here in first-seen order.
_PID_WORKER_BASE = 10

_DEFAULT_CLOCK_HZ = 700e6

#: Kinds the profiler pairs into spans; they render only as those spans.
_PAIRED_KINDS = frozenset({
    "task-start", "task-finish", "user-start", "user-finish",
})


class _TraceBuilder:
    """Folds normalized records into Chrome trace events."""

    def __init__(self, to_us) -> None:
        self.to_us = to_us
        self.out: list[dict] = []
        self.cores: set[int] = set()
        self.max_t = 0
        self._core_state: dict[int, tuple[int, str]] = {}
        self._worker_pids: dict[int, int] = {}  # OS pid -> Chrome pid
        self._worker_cores: dict[int, set[int]] = {}  # Chrome pid -> cores

    def _sched_pid(self, data: dict, core: int) -> int:
        """Chrome pid for a scheduler-lane record.

        A record with a ``process_id`` payload (worker OS pid from the
        multiprocess runtime) gets its own Chrome process so Perfetto
        renders one timeline lane per pool process; records without it
        (sim, threaded) stay on the shared scheduler process.
        """
        os_pid = data.get("process_id")
        if os_pid is None:
            return _PID_SCHED
        chrome_pid = self._worker_pids.get(os_pid)
        if chrome_pid is None:
            chrome_pid = _PID_WORKER_BASE + len(self._worker_pids)
            self._worker_pids[os_pid] = chrome_pid
        if core >= 0:
            self._worker_cores.setdefault(chrome_pid, set()).add(core)
        return chrome_pid

    # -------------------------------------------------------------- pieces
    def _slice(
        self, pid: int, tid: int, name: str, begin: int, end: int, args: dict
    ) -> None:
        self.out.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "name": name,
                "cat": "repro",
                "ts": self.to_us(begin),
                "dur": max(0.0, self.to_us(end) - self.to_us(begin)),
                "args": args,
            }
        )

    def _instant(self, pid: int, tid: int, name: str, t: int, args: dict) -> None:
        self.out.append(
            {
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tid,
                "name": name,
                "cat": "repro",
                "ts": self.to_us(t),
                "args": args,
            }
        )

    def _counter(self, pid: int, name: str, t: int, values: dict) -> None:
        self.out.append(
            {
                "ph": "C",
                "pid": pid,
                "tid": 0,
                "name": name,
                "ts": self.to_us(t),
                "args": values,
            }
        )

    # -------------------------------------------------------------- events
    def add(self, kind: str, t: int, core: int, data: dict) -> None:
        self.max_t = max(self.max_t, t)
        if core >= 0:
            self.cores.add(core)
        if kind in _PAIRED_KINDS:
            return  # rendered from the profiler's closed spans
        if kind == "state-transition":
            self._state_transition(t, core, data)
        elif kind == "dispatch":
            self._dispatch(t, data)
        elif kind == "governor":
            self._counter(
                _PID_MACHINE, "target_workers", t,
                {"target": data.get("target", 0)},
            )
        elif kind == "steal":
            self._instant(self._sched_pid(data, core), core, "steal", t, data)
        elif kind == "wake-check":
            self._instant(_PID_POWER, core, "wake-check", t, data)
        elif kind == "gating":
            self._counter(
                _PID_GATING, "powered_cores", t,
                {"powered": data.get("powered", 0)},
            )
            self._instant(_PID_GATING, 0, "gating-toggle", t, data)
        else:
            # Unknown/new kind (newer schema than this exporter): keep the
            # trace loadable instead of failing.
            self._instant(_PID_MACHINE, 0, kind, t, data)

    def _span(self, span: Span) -> None:
        """Render one closed profiler span: a subframe as an async pair,
        any other span as a slice on its core's lane."""
        data = span.data or {}
        if span.cat == "subframe":
            for ph, ts in (("b", span.begin), ("e", span.end)):
                self.out.append(
                    {
                        "ph": ph,
                        "pid": _PID_MACHINE,
                        "tid": 0,
                        "id": data.get("subframe", -1),
                        "name": span.name,
                        "cat": "subframe",
                        "ts": self.to_us(ts),
                    }
                )
            return
        args = data
        if span.cat == "task":
            args = {
                k: data[k]
                for k in ("subframe", "user", "stolen", "serial", "cycles")
                if k in data
            }
        pid = self._sched_pid(data, span.core)
        self._slice(pid, span.core, span.name, span.begin, span.end, args)

    def _state_transition(self, t: int, core: int, data: dict) -> None:
        previous = self._core_state.get(core)
        begin, state = previous if previous is not None else (0, data.get("from", "?"))
        self._slice(_PID_POWER, core, state, begin, t, {})
        self._core_state[core] = (t, data.get("to", "?"))

    def _dispatch(self, t: int, data: dict) -> None:
        self._instant(
            _PID_MACHINE, 0, f"dispatch sf{data.get('subframe', '?')}", t, data
        )
        if "queue_depth" in data:
            self._counter(
                _PID_MACHINE, "queue_depth", t, {"depth": data["queue_depth"]}
            )

    # ------------------------------------------------------------ finalize
    def finish(self, spans: list[Span]) -> list[dict]:
        for span in spans:
            self._span(span)
        for core, (begin, state) in sorted(self._core_state.items()):
            if self.max_t > begin:
                self._slice(_PID_POWER, core, state, begin, self.max_t, {})
        names = {
            _PID_MACHINE: "machine (dispatch + subframes)",
            _PID_SCHED: "scheduler (per-core tasks)",
            _PID_POWER: "power-states (per-core)",
            _PID_GATING: "power-gating (analytic)",
        }
        meta: list[dict] = [
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": label},
            }
            for pid, label in names.items()
        ]
        for core in sorted(self.cores):
            for pid in (_PID_SCHED, _PID_POWER):
                meta.append(
                    {
                        "ph": "M",
                        "pid": pid,
                        "tid": core,
                        "name": "thread_name",
                        "args": {"name": f"core {core}"},
                    }
                )
        for os_pid, chrome_pid in sorted(self._worker_pids.items()):
            meta.append(
                {
                    "ph": "M",
                    "pid": chrome_pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": f"worker process {os_pid}"},
                }
            )
            for core in sorted(self._worker_cores.get(chrome_pid, ())):
                meta.append(
                    {
                        "ph": "M",
                        "pid": chrome_pid,
                        "tid": core,
                        "name": "thread_name",
                        "args": {"name": f"worker {core}"},
                    }
                )
        return meta + self.out


def chrome_trace_events(
    records: Iterable[Any],
    clock: str = "cycles",
    clock_hz: float = _DEFAULT_CLOCK_HZ,
) -> list[dict]:
    """Convert an event stream into a list of Chrome trace events.

    ``clock`` is ``"cycles"`` (simulator timestamps, converted at
    ``clock_hz``) or ``"ns"`` (threaded-runtime ``monotonic_ns``
    timestamps). Unknown event kinds become generic instants — never an
    error.
    """
    if clock == "cycles":
        def to_us(t: int) -> float:
            return t / clock_hz * 1e6
    elif clock == "ns":
        def to_us(t: int) -> float:
            return t / 1e3
    else:
        raise ValueError(f"unknown clock {clock!r} (use 'cycles' or 'ns')")
    builder = _TraceBuilder(to_us)
    profiler = Profiler()
    kinds = {kind.value: kind for kind in EventKind}
    for record in records:
        kind, t, core, data = split_record(record)
        if kind in kinds:
            profiler(Event(kinds[kind], t, core, data))
        builder.add(kind, t, core, data)
    return builder.finish(profiler.spans)


def gating_events_from_active_workers(
    active_workers: np.ndarray,
    subframe_period_cycles: int,
) -> list[Event]:
    """Synthesize ``gating`` events from a run's active-core trace.

    Applies the analytic Eqs. 6-7 pipeline to ``SimResult.active_workers``
    and emits one :class:`Event` per subframe where the powered-core count
    changes (groups toggling on/off), timestamped at the subframe boundary.
    """
    model = PowerGatingModel()
    trace = model.evaluate(np.asarray(active_workers))
    group = model.params.group_size
    events: list[Event] = []
    previous = None
    for index, powered in enumerate(trace.powered):
        powered = int(powered)
        if powered == previous:
            continue
        events.append(
            Event(
                EventKind.GATING,
                index * subframe_period_cycles,
                -1,
                {
                    "subframe": index,
                    "powered": powered,
                    "groups_on": powered // group,
                    "delta": powered - (previous or 0),
                },
            )
        )
        previous = powered
    return events


def write_chrome_trace(
    path: Any,
    records: Iterable[Any],
    clock: str = "cycles",
    clock_hz: float = _DEFAULT_CLOCK_HZ,
    extra: Iterable[Any] = (),
    metadata: dict | None = None,
) -> int:
    """Write a ``{"traceEvents": [...]}`` JSON file; returns event count.

    ``extra`` takes additional records sharing the same clock (e.g. the
    synthesized gating events). The file loads directly in Perfetto /
    ``chrome://tracing``.
    """
    trace_events = chrome_trace_events(
        [*records, *extra], clock=clock, clock_hz=clock_hz
    )
    document = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": clock, "clock_hz": clock_hz, **(metadata or {})},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, separators=(",", ":"))
    return len(trace_events)
