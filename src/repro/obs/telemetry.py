"""The one fold of the event stream: bounded, mergeable aggregates.

The paper's power-management argument rests on one set of aggregates:
per-kernel cycles feed the k_LM estimator (Eqs. 1-4) and per-window busy
time feeds the 100 ms power series (Figs. 13-16). :class:`TelemetryCollector`
is the only observer that folds events into them; the profiler
(:class:`~repro.obs.profiling.Profiler` is a subclass), the SLO engine,
``repro metrics`` and ``repro top`` read it. Its building blocks:

* :class:`QuantileSketch` — a DDSketch-style log-bucketed quantile sketch
  with a documented *relative* accuracy guarantee, bounded memory, and an
  **exact merge**: merging two sketches built from disjoint observation
  sets yields bucket-for-bucket the sketch of the union (a checkpoint's
  telemetry cut merges into a resumed run losslessly);
* :class:`WindowRing` — fixed-width time windows (the paper's 100 ms RMS
  cadence) holding count/sum/min/max per window in a bounded ring.

Timestamps stay in the emitting backend's native clock (simulator cycles
or ``monotonic_ns``); ``window`` and ``delta`` are bound automatically
from the simulator in ``on_run_start`` and default to the paper's 100 ms
window / 5 ms DELTA in nanoseconds otherwise. A subframe's deadline is
always ``IN_FLIGHT_BOUND`` periods of that DELTA. Concurrent calls from
worker threads are safe under the GIL (plain list/dict updates).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any

from .events import EventKind

__all__ = [
    "DEFAULT_DELTA_NS",
    "DEFAULT_RELATIVE_ACCURACY",
    "DEFAULT_WINDOW_NS",
    "IN_FLIGHT_BOUND",
    "QuantileSketch",
    "TelemetryCollector",
    "WindowRing",
]

#: Default sketch accuracy: quantile estimates are within ±1% of the true
#: value (relative error), guaranteed by the log-bucket construction.
DEFAULT_RELATIVE_ACCURACY = 0.01

#: The paper's measurement window (100 ms) in nanoseconds — the default
#: for wall-clock backends; the simulator binds 0.1 s in cycles instead.
DEFAULT_WINDOW_NS = 100_000_000

#: One subframe period (DELTA = 5 ms) in nanoseconds — the default for
#: wall-clock backends; the simulator binds its period in cycles instead.
DEFAULT_DELTA_NS = 5_000_000

#: Section VI: "A base station therefore processes no more than two to
#: three subframes concurrently" — a subframe is late when it reaches its
#: terminal more than this many DELTA periods after its dispatch.
IN_FLIGHT_BOUND = 3


class QuantileSketch:
    """DDSketch-style quantile sketch with relative-accuracy guarantee.

    Values are mapped to logarithmic buckets of ratio
    ``gamma = (1 + a) / (1 - a)`` where ``a`` is ``relative_accuracy``;
    any quantile estimate is within ``a`` (relative) of a true value of
    the observed multiset. Negative values use a mirrored bucket store
    (deadline slack goes negative on misses) and near-zero values a
    dedicated counter; ``count``/``sum``/``min``/``max`` are exact.

    **Merge is exact**: two sketches with the same ``gamma`` merge by
    adding bucket counts, so ``merge`` over per-worker sketches equals
    the sketch of the union of their observations bucket for bucket
    (provided no bucket collapse occurred — see ``max_bins``).

    Memory is bounded by ``max_bins`` buckets per store; on overflow the
    two lowest-magnitude buckets are collapsed (biasing only the extreme
    low tail), keeping memory O(1) in the observation count.
    """

    __slots__ = (
        "relative_accuracy",
        "max_bins",
        "gamma",
        "_inv_log_gamma",
        "_min_trackable",
        "_pos",
        "_neg",
        "_zeros",
        "_count",
        "_sum",
        "_min",
        "_max",
        "collapsed",
    )

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        max_bins: int = 2048,
    ) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")
        if max_bins < 8:
            raise ValueError("max_bins must be >= 8")
        self.relative_accuracy = relative_accuracy
        self.max_bins = max_bins
        self.gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._inv_log_gamma = 1.0 / math.log(self.gamma)
        self._min_trackable = 1e-9
        self._pos: dict[int, int] = {}
        self._neg: dict[int, int] = {}
        self._zeros = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: True once any bucket collapse happened (merge is no longer
        #: guaranteed bucket-exact, quantiles still accuracy-bounded
        #: away from the collapsed low tail).
        self.collapsed = False

    # ------------------------------------------------------------- observe
    def observe(self, value: float) -> None:
        v = float(value)
        self._count += 1
        self._sum += v
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v
        if v > self._min_trackable:
            store = self._pos
            key = math.ceil(math.log(v) * self._inv_log_gamma)
        elif v < -self._min_trackable:
            store = self._neg
            key = math.ceil(math.log(-v) * self._inv_log_gamma)
        else:
            self._zeros += 1
            return
        store[key] = store.get(key, 0) + 1
        if len(store) > self.max_bins:
            self._collapse(store)

    def _collapse(self, store: dict[int, int]) -> None:
        keys = sorted(store)
        store[keys[1]] += store.pop(keys[0])
        self.collapsed = True

    # -------------------------------------------------------------- stats
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def _bucket_value(self, key: int) -> float:
        # Midpoint estimate of bucket (gamma^(key-1), gamma^key].
        return 2.0 * self.gamma**key / (self.gamma + 1.0)

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], within ``relative_accuracy``.

        ``q=0``/``q=1`` return the exact min/max; estimates are clamped
        into the exact observed range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self._count == 0:
            return 0.0
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        rank = q * (self._count - 1)
        seen = 0.0
        for key in sorted(self._neg, reverse=True):
            seen += self._neg[key]
            if seen > rank:
                return min(max(-self._bucket_value(key), self._min), self._max)
        if self._zeros:
            seen += self._zeros
            if seen > rank:
                return 0.0
        for key in sorted(self._pos):
            seen += self._pos[key]
            if seen > rank:
                return min(max(self._bucket_value(key), self._min), self._max)
        return self._max

    # -------------------------------------------------------------- merge
    def merge(self, other: QuantileSketch) -> None:
        """Fold ``other`` into this sketch (exact: bucket counts add)."""
        if abs(other.gamma - self.gamma) > 1e-12:
            raise ValueError(
                "cannot merge sketches with different relative accuracy"
            )
        for key, count in other._pos.items():
            self._pos[key] = self._pos.get(key, 0) + count
        for key, count in other._neg.items():
            self._neg[key] = self._neg.get(key, 0) + count
        self._zeros += other._zeros
        self._count += other._count
        self._sum += other._sum
        if other._count:
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)
        self.collapsed = self.collapsed or other.collapsed
        while len(self._pos) > self.max_bins:
            self._collapse(self._pos)
        while len(self._neg) > self.max_bins:
            self._collapse(self._neg)

    # ---------------------------------------------------------- transport
    def to_dict(self) -> dict:
        """JSON/pipe-safe representation (exact round trip)."""
        return {
            "relative_accuracy": self.relative_accuracy,
            "max_bins": self.max_bins,
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "zeros": self._zeros,
            "collapsed": self.collapsed,
            "pos": {str(k): v for k, v in self._pos.items()},
            "neg": {str(k): v for k, v in self._neg.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> QuantileSketch:
        sketch = cls(
            relative_accuracy=payload["relative_accuracy"],
            max_bins=payload.get("max_bins", 2048),
        )
        sketch._pos = {int(k): int(v) for k, v in payload["pos"].items()}
        sketch._neg = {int(k): int(v) for k, v in payload["neg"].items()}
        sketch._zeros = int(payload["zeros"])
        sketch._count = int(payload["count"])
        sketch._sum = float(payload["sum"])
        if sketch._count:
            sketch._min = float(payload["min"])
            sketch._max = float(payload["max"])
        sketch.collapsed = bool(payload.get("collapsed", False))
        return sketch

    def summary(self) -> dict:
        """Quantile summary (same keys as the metrics histograms)."""
        if not self._count:
            return {"count": 0}
        return {
            "count": self._count,
            "mean": self.mean(),
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "max": self.max,
        }


class WindowRing:
    """Fixed-width time windows with bounded history.

    Window ``i`` covers ``[i * window, (i + 1) * window)`` in the native
    clock. Each window keeps count/sum/min/max; at most ``capacity``
    windows are retained (older ones fall off the ring). Out-of-order
    timestamps (worker-thread skew) fold into the newest open window so
    per-observation cost stays O(1).
    """

    __slots__ = ("window", "capacity", "_entries")

    def __init__(self, window: float, capacity: int = 64) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.window = float(window)
        self.capacity = capacity
        # Each entry: [window_index, count, sum, min, max].
        self._entries: deque[list] = deque(maxlen=capacity)

    def add(self, t: float, value: float = 1.0) -> None:
        index = int(t // self.window)
        entries = self._entries
        if entries and index <= entries[-1][0]:
            entry = entries[-1]
            entry[1] += 1
            entry[2] += value
            if value < entry[3]:
                entry[3] = value
            if value > entry[4]:
                entry[4] = value
        else:
            entries.append([index, 1, value, value, value])

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def last_index(self) -> int | None:
        return self._entries[-1][0] if self._entries else None

    def series(self) -> list[dict]:
        """Per-window aggregates, oldest first (open window included)."""
        return [
            {
                "window": entry[0],
                "t": entry[0] * self.window,
                "count": entry[1],
                "sum": entry[2],
                "min": entry[3],
                "max": entry[4],
                "mean": entry[2] / entry[1],
            }
            for entry in self._entries
        ]

    def totals(
        self, last: int | None = None, ref: int | None = None
    ) -> tuple[int, float]:
        """(count, sum) over the last ``last`` windows (all if None).

        Windows with no events are not stored, so "last ``last``
        windows" is judged by window *index*, not entry position:
        only entries with ``index > ref - last`` count, where ``ref``
        defaults to this ring's newest index. Pass the clock's current
        window as ``ref`` so sparse rings (e.g. deadline misses) age
        out even when no new events land in them.
        """
        entries = list(self._entries)
        if last is not None:
            threshold = ref if ref is not None else self.last_index
            if threshold is not None:
                entries = [e for e in entries if e[0] > threshold - last]
        return (
            sum(e[1] for e in entries),
            float(sum(e[2] for e in entries)),
        )


class TelemetryCollector:
    """The one observer folding the event stream into aggregates.

    Works on every event-emitting backend: bound to a
    :class:`~repro.sim.machine.MachineSimulator` run it adopts the
    simulated clock (cycles; window = 0.1 s, ``delta`` = the subframe
    period); on the runtimes timestamps are ``monotonic_ns`` and the
    defaults are the paper's 100 ms window and 5 ms DELTA.

    Every subframe ends at its ``SUBFRAME_TERMINAL``: its latency is
    measured from its ``DISPATCH`` and scored against ``deadline``
    (``IN_FLIGHT_BOUND`` × ``delta``). The fold keeps:

    * sketches — ``subframe_latency``, ``deadline_slack`` (negative on
      misses), per-kernel task durations ``kernel_<name>`` (a task with no
      kernel counts as ``task``), ``user_span``, ``steal_wait``,
      ``dispatch_queue_depth``, ``governor_target`` and, in serve,
      ``arrival_lag``;
    * counters — subframes, deadline misses, tasks, ``stolen_<kernel>``,
      steals, wake checks and hits, ``transitions_to_<state>``, and the
      shed/retry/fault/abort/backpressure/respawn counts;
    * rings — per-window subframe latency, deadline misses, dispatched
      users, shed/retry/fault/abort counts, and busy time (the basis of
      :meth:`power_windows`);
    * per-core busy time, and per-core utilization at ``on_run_end``.

    ``merge_shard`` folds a checkpoint's telemetry cut back in (exact
    sketch merge) when serve resumes.
    """

    def __init__(
        self,
        window: float | None = None,
        delta: float | None = None,
        workers: int | None = None,
    ) -> None:
        self.window = window
        #: One subframe period (DELTA) in the native clock.
        self.delta = delta
        self.workers = workers
        self.clock: str = "ns"
        self.clock_hz: float | None = None
        self.sketches: dict[str, QuantileSketch] = {}
        self.counters: dict[str, int] = {}
        self.rings: dict[str, WindowRing] = {}
        self.terminal_counts: dict[str, int] = {}
        self.process_ids: dict[int, int] = {}
        self.core_busy: dict[int, float] = {}
        #: Busy fraction of the run horizon per worker (simulator runs).
        self.per_core_utilization: list[float] = []
        self._sf_begin: dict[int, float] = {}
        self._open_tasks: dict[int, float] = {}
        self._open_users: dict[tuple[int, int], tuple[float, int]] = {}
        self._last_t: float = 0.0
        #: Serve-wide admission load factor from the last DEGRADE/RECOVER
        #: event (1.0 = full admission; see ``repro.serve.overload``).
        self.load_factor: float = 1.0

    # ----------------------------------------------------------- plumbing
    def sketch(self, name: str) -> QuantileSketch:
        sketch = self.sketches.get(name)
        if sketch is None:
            sketch = self.sketches[name] = QuantileSketch()
        return sketch

    def ring(self, name: str) -> WindowRing:
        ring = self.rings.get(name)
        if ring is None:
            ring = self.rings[name] = WindowRing(self._window())
        return ring

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _window(self) -> float:
        if self.window is None:
            self.window = float(DEFAULT_WINDOW_NS)
        return self.window

    @property
    def deadline(self) -> float:
        """The latest on-time latency: ``IN_FLIGHT_BOUND`` × DELTA."""
        if self.delta is None:
            self.delta = float(DEFAULT_DELTA_NS)
        return IN_FLIGHT_BOUND * self.delta

    # ----------------------------------------------------------- observer
    def on_run_start(self, sim: Any) -> None:
        machine = sim.machine
        self.clock = "cycles"
        self.clock_hz = machine.clock_hz
        if self.window is None:
            self.window = 0.1 * machine.clock_hz
        if self.delta is None:
            self.delta = float(machine.subframe_period_cycles)
        if self.workers is None:
            self.workers = machine.num_workers

    def on_run_end(self, sim: Any, result: Any) -> None:
        horizon = getattr(sim, "_horizon", 0)
        if horizon > 0:
            busy = self.core_busy
            self.per_core_utilization = [
                busy.get(core, 0.0) / horizon
                for core in range(sim.machine.num_workers)
            ]

    def __call__(self, event: Any) -> None:
        kind = event.kind
        t = event.t
        self._last_t = t
        data = event.data or {}
        if event.core >= 0 and "process_id" in data:
            self.process_ids[event.core] = int(data["process_id"])
        # The kinds serve emits come first: they are its hot path.
        if kind is EventKind.TASK_START:
            self._open_tasks[event.core] = t
        elif kind is EventKind.TASK_FINISH:
            self._task_finish(event, data)
        elif kind is EventKind.DISPATCH:
            self._sf_begin[data.get("subframe", -1)] = t
            self.ring("users").add(t, data.get("users", 0))
            depth = data.get("queue_depth")
            if depth is not None:
                self.sketch("dispatch_queue_depth").observe(depth)
        elif kind is EventKind.SUBFRAME_TERMINAL:
            self._terminal(event, data)
        elif kind is EventKind.ARRIVAL:
            self._count("arrivals")
            self.sketch("arrival_lag").observe(float(data.get("lag_ns", 0)))
            self.ring("queue_depth").add(t, float(data.get("queue_depth", 0)))
        elif kind is EventKind.SHED:
            shed = data.get("users", 0)
            self._count("shed_users", shed)
            self.ring("shed_users").add(t, shed)
        elif kind is EventKind.FAULT:
            self._count("faults")
            self.ring("faults").add(t)
        elif kind is EventKind.USER_RETRY:
            self._count("retries")
            self.ring("retries").add(t)
        elif kind is EventKind.USER_ABORTED:
            self._count("aborted_users")
            self.ring("aborted_users").add(t)
        elif kind is EventKind.BACKPRESSURE:
            # A backpressure drop is shedding too: fold its users into the
            # shed accounting so the shed-rate SLO reflects *all* load the
            # serve layer refused, not just admission-control decisions.
            users = data.get("users", 0)
            self._count("backpressure")
            self.ring("backpressure").add(t)
            if users:
                self._count("shed_users", users)
                self.ring("shed_users").add(t, users)
        elif kind is EventKind.DEGRADE:
            self._count("degrades")
            self.load_factor = float(data.get("load_factor", 0.0))
        elif kind is EventKind.RECOVER:
            self._count("recovers")
            self.load_factor = float(data.get("load_factor", 1.0))
        elif kind is EventKind.WORKER_RESPAWN:
            self._count("respawns")
            self.ring("respawns").add(t)
        elif kind is EventKind.USER_START:
            key = (data.get("subframe", -1), data.get("user", -1))
            self._open_users[key] = (t, event.core)
        elif kind is EventKind.USER_FINISH:
            self._user_finish(event, data)
        elif kind is EventKind.STATE_TRANSITION:
            self._count("transitions_to_" + str(data.get("to", "?")))
        elif kind is EventKind.STEAL:
            self._count("steals")
            if "wait" in data:
                self.sketch("steal_wait").observe(data["wait"])
        elif kind is EventKind.WAKE_CHECK:
            self._count("wake_checks")
            if data.get("took_work"):
                self._count("wake_hits")
        elif kind is EventKind.GOVERNOR:
            self.sketch("governor_target").observe(data.get("target", 0))

    # The closers below return what they closed (``None`` for an unpaired
    # end, e.g. the tail of a ring-buffered trace) so a subclass can keep
    # the span.
    def _task_finish(self, event: Any, data: dict) -> float | None:
        """Fold one task; returns its duration."""
        # Hottest handler (one call per task per kernel stage): dict
        # operations are inlined rather than routed through the lazy
        # sketch()/ring()/_count() factories.
        cycles = data.get("cycles")
        if cycles is not None:
            duration = float(cycles)
        else:
            begin = self._open_tasks.pop(event.core, None)
            if begin is None:
                return None
            duration = float(event.t - begin)
        counters = self.counters
        counters["tasks"] = counters.get("tasks", 0) + 1
        kernel = data.get("kernel") or "task"
        name = "kernel_" + kernel
        sketch = self.sketches.get(name)
        if sketch is None:
            sketch = self.sketch(name)
        sketch.observe(duration)
        if data.get("stolen"):
            name = "stolen_" + kernel
            counters[name] = counters.get(name, 0) + 1
        ring = self.rings.get("busy")
        if ring is None:
            ring = self.ring("busy")
        ring.add(event.t, duration)
        core = event.core
        if core >= 0:
            busy = self.core_busy
            busy[core] = busy.get(core, 0.0) + duration
        return duration

    def _user_finish(self, event: Any, data: dict) -> tuple | None:
        """Fold one user span; returns its ``(begin, core)``."""
        key = (data.get("subframe", -1), data.get("user", -1))
        opened = self._open_users.pop(key, None)
        if opened is not None:
            self.sketch("user_span").observe(float(event.t - opened[0]))
        return opened

    def _terminal(self, event: Any, data: dict) -> float | None:
        """Fold one subframe's terminal; returns its dispatch time."""
        t = event.t
        state = data.get("state", "ok")
        self.terminal_counts[state] = self.terminal_counts.get(state, 0) + 1
        self._count("subframes")
        self.ring("subframes").add(t)
        begin = self._sf_begin.pop(data.get("subframe", -1), None)
        if begin is None:
            return None
        latency = float(t - begin)
        self.sketch("subframe_latency").observe(latency)
        self.ring("latency").add(t, latency)
        slack = self.deadline - latency
        self.sketch("deadline_slack").observe(slack)
        # An aborted subframe never delivered: a miss whatever its latency.
        if slack < 0 or state == "aborted":
            self._count("deadline_misses")
            self.ring("deadline_misses").add(t)
        return begin

    # -------------------------------------------------------------- merge
    def merge_shard(self, shard: dict) -> None:
        """Fold a telemetry cut (``sketches``/``counters``) in exactly."""
        for name, payload in shard.get("sketches", {}).items():
            self.sketch(name).merge(QuantileSketch.from_dict(payload))
        for name, amount in shard.get("counters", {}).items():
            self._count(name, int(amount))

    # ------------------------------------------------------------- derived
    def _current_window(self) -> int:
        """Window index of the latest observed timestamp."""
        return int(self._last_t // self._window())

    def deadline_miss_rate(self, last: int | None = None) -> float:
        """Missed fraction of completed subframes (optionally windowed).

        Over the whole run it is the ``deadline_misses`` / ``subframes``
        counters. Windowed, both rings are aligned on the clock's current
        window so a miss recorded ``last`` windows ago ages out even
        though the sparse miss ring gained no newer entries since.
        """
        if last is None:
            subframes = self.counters.get("subframes", 0)
            misses = self.counters.get("deadline_misses", 0)
        else:
            ref = self._current_window()
            subframes, _ = self.ring("subframes").totals(last, ref)
            misses, _ = self.ring("deadline_misses").totals(last, ref)
        return misses / subframes if subframes else 0.0

    def shed_rate(self, last: int | None = None) -> float:
        """Shed users as a fraction of all dispatched + shed users."""
        ref = self._current_window() if last is not None else None
        shed = self.ring("shed_users").totals(last, ref)[1]
        users = self.ring("users").totals(last, ref)[1]
        total = users + shed
        if total <= 0:
            return 0.0
        return shed / total

    def power_windows(self, last: int | None = None) -> list[dict]:
        """Per-window power estimate (W), the Figs. 13-16 / 100 ms analog.

        Busy fraction per window is summed task time divided by the
        window's total core capacity (``window * workers``); power is
        :func:`repro.power.model.power_from_busy_fraction` — base power
        plus per-core compute draw for the busy fraction and reactive-nap
        draw for the remainder.
        """
        from ..power.model import power_from_busy_fraction

        workers = self.workers or 1
        window = self._window()
        series = self.ring("busy").series()
        if last is not None:
            series = series[-last:]
        capacity = window * workers
        out = []
        for entry in series:
            busy_frac = min(1.0, entry["sum"] / capacity)
            out.append(
                {
                    "window": entry["window"],
                    "t": entry["t"],
                    "busy_fraction": busy_frac,
                    "power_w": float(
                        power_from_busy_fraction(busy_frac, workers)
                    ),
                }
            )
        return out

    def mean_power_w(self, last: int | None = None) -> float:
        windows = self.power_windows(last)
        if not windows:
            from ..power.model import power_from_busy_fraction

            return float(power_from_busy_fraction(0.0, self.workers or 1))
        return sum(w["power_w"] for w in windows) / len(windows)

    # ------------------------------------------------------------ snapshot
    def snapshot(self) -> dict:
        """JSON-serializable live view of every aggregate."""
        seconds = None
        if self.clock == "cycles" and self.clock_hz:
            seconds = self._window() / self.clock_hz
        elif self.clock == "ns":
            seconds = self._window() / 1e9
        return {
            "clock": self.clock,
            "clock_hz": self.clock_hz,
            "window": self._window(),
            "window_s": seconds,
            "deadline": self.deadline,
            "workers": self.workers,
            "counters": dict(sorted(self.counters.items())),
            "load_factor": self.load_factor,
            "terminal_counts": dict(sorted(self.terminal_counts.items())),
            "deadline_miss_rate": self.deadline_miss_rate(),
            "shed_rate": self.shed_rate(),
            "sketches": {
                name: sketch.summary()
                for name, sketch in sorted(self.sketches.items())
            },
            "series": {
                name: ring.series()
                for name, ring in sorted(self.rings.items())
            },
            "power_windows": self.power_windows(),
            "core_busy": dict(sorted(self.core_busy.items())),
            "per_core_utilization": list(self.per_core_utilization),
            "process_ids": dict(sorted(self.process_ids.items())),
            "last_t": self._last_t,
        }
