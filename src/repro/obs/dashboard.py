"""Live terminal dashboard over the streaming telemetry (``repro top``).

Pure rendering: :func:`render_dashboard` turns a
:class:`~repro.obs.telemetry.TelemetryCollector` snapshot plus an
optional :class:`~repro.obs.slo.SLOEngine` report into a fixed-width
ANSI-free text frame — sparkline time series for the windowed subframe
latency / miss / power draw (the paper's Figs. 13-16 signals, live),
current sketch percentiles, per-core busy time and process mapping, and
any firing SLO alerts. The CLI layer decides how to present frames:
once (``repro top --once``, CI-safe), redrawn in place during an
in-process run, or replay/tail of a JSONL trace (``repro top --from``).

:class:`TraceTailer` feeds a collector (or an SLO engine wrapping one)
from a JSONL trace file, tolerating unknown event kinds and partial
final lines so it can tail a trace that is still being written.
"""

from __future__ import annotations

import json
from typing import IO, Any

from .events import Event, EventKind, split_record

__all__ = [
    "SPARK_CHARS",
    "TraceTailer",
    "render_dashboard",
    "sparkline",
]

#: Eight-level bar characters, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Frame width in characters.
_WIDTH = 78


def sparkline(
    values: list[float],
    width: int = 32,
    lo: float | None = None,
    hi: float | None = None,
) -> str:
    """Render ``values`` as a sparkline of at most ``width`` chars.

    The most recent values win when the series is longer than ``width``.
    """
    if not values:
        return ""
    values = [float(v) for v in values[-width:]]
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    if hi <= lo:
        return SPARK_CHARS[0] * len(values)
    span = hi - lo
    top = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[min(top, max(0, int((v - lo) / span * top)))]
        for v in values
    )


def _fmt_duration(value: float, clock: str, clock_hz: float | None) -> str:
    """Format a native-clock duration as milliseconds."""
    if clock == "cycles" and clock_hz:
        ms = value / clock_hz * 1e3
    else:
        ms = value / 1e6
    return f"{ms:8.3f} ms"


def _series_values(series: list[dict], key: str = "sum") -> list[float]:
    return [float(entry[key]) for entry in series]


def render_dashboard(
    snapshot: dict,
    slo_report: dict | None = None,
    title: str = "repro top",
) -> str:
    """Render one dashboard frame from a telemetry snapshot.

    ``snapshot`` is :meth:`TelemetryCollector.snapshot` output (plain
    data, so frames can also be rendered from JSON); ``slo_report`` is
    :meth:`SLOEngine.slo_report` output or ``None``.
    """
    clock = snapshot.get("clock", "ns")
    clock_hz = snapshot.get("clock_hz")
    window_s = snapshot.get("window_s")
    counters = snapshot.get("counters", {})
    sketches = snapshot.get("sketches", {})
    series = snapshot.get("series", {})
    spark_w = max(16, _WIDTH - 46)

    lines: list[str] = []
    rule = "─" * _WIDTH
    window_text = f"{window_s * 1e3:.0f} ms" if window_s else "?"
    lines.append(
        f"{title} · clock={clock} · window={window_text} · "
        f"workers={snapshot.get('workers') or '?'}"
    )
    lines.append(rule)

    subframes = counters.get("subframes", 0)
    misses = counters.get("deadline_misses", 0)
    lines.append(
        f"subframes {subframes:>8d}   misses {misses:>6d} "
        f"({snapshot.get('deadline_miss_rate', 0.0) * 100:5.2f}%)   "
        f"shed {counters.get('shed_users', 0):>5d} "
        f"({snapshot.get('shed_rate', 0.0) * 100:5.2f}%)   "
        f"faults {counters.get('faults', 0):>4d}   "
        f"retries {counters.get('retries', 0):>4d}"
    )
    terminal = snapshot.get("terminal_counts", {})
    if terminal:
        states = "  ".join(f"{k}={v}" for k, v in sorted(terminal.items()))
        lines.append(f"terminal   {states}")
    arrivals = counters.get("arrivals", 0)
    if arrivals:
        # Serve-mode ingest signals (ARRIVAL/BACKPRESSURE events).
        line = (
            f"arrivals {arrivals:>8d}   "
            f"backpressure {counters.get('backpressure', 0):>5d}"
        )
        lag = sketches.get("arrival_lag", {})
        if lag.get("count"):
            line += (
                "   lag p99"
                + _fmt_duration(lag["p99"], clock, clock_hz)
            )
        lines.append(line)
    degrades = counters.get("degrades", 0)
    respawns = counters.get("respawns", 0)
    if degrades or respawns or counters.get("recovers", 0):
        # Self-healing signals (DEGRADE/RECOVER/WORKER_RESPAWN events):
        # current admission load factor and supervisor respawn count.
        lines.append(
            f"adaptive   load_factor {snapshot.get('load_factor', 1.0):5.2f}"
            f"   degrades {degrades:>4d}   "
            f"recovers {counters.get('recovers', 0):>4d}   "
            f"respawns {respawns:>4d}"
        )
    lines.append(rule)

    latency = sketches.get("subframe_latency", {})
    if latency.get("count"):
        lines.append(
            "latency    p50 "
            + _fmt_duration(latency["p50"], clock, clock_hz)
            + "  p90 "
            + _fmt_duration(latency["p90"], clock, clock_hz)
            + "  p99 "
            + _fmt_duration(latency["p99"], clock, clock_hz)
            + "  max "
            + _fmt_duration(latency["max"], clock, clock_hz)
        )

    lat_series = series.get("latency", [])
    if lat_series:
        values = _series_values(lat_series, "max")
        lines.append(
            f"lat max/w  {sparkline(values, spark_w):<{spark_w}}  "
            f"last {_fmt_duration(values[-1], clock, clock_hz)}"
        )
    miss_series = series.get("deadline_misses", [])
    if miss_series:
        values = _series_values(miss_series, "count")
        lines.append(
            f"misses/w   {sparkline(values, spark_w):<{spark_w}}  "
            f"last {values[-1]:8.0f}"
        )
    depth_series = series.get("queue_depth", [])
    if depth_series:
        values = _series_values(depth_series, "mean")
        lines.append(
            f"queue/w    {sparkline(values, spark_w):<{spark_w}}  "
            f"last {values[-1]:8.2f}"
        )
    power = snapshot.get("power_windows", [])
    if power:
        values = [entry["power_w"] for entry in power]
        lines.append(
            f"power/w    {sparkline(values, spark_w):<{spark_w}}  "
            f"last {values[-1]:8.2f} W"
        )
        busy = [entry["busy_fraction"] for entry in power]
        lines.append(
            f"busy/w     {sparkline(busy, spark_w, 0.0, 1.0):<{spark_w}}  "
            f"last {busy[-1] * 100:7.1f} %"
        )

    core_busy = snapshot.get("core_busy", {})
    if core_busy:
        lines.append(rule)
        process_ids = snapshot.get("process_ids", {})
        total = sum(core_busy.values()) or 1.0
        shown = sorted(core_busy.items(), key=lambda kv: int(kv[0]))[:16]
        for core, busy in shown:
            share = busy / total
            bar_w = max(8, _WIDTH - 40)
            bar = "█" * int(share * bar_w)
            pid = process_ids.get(core, process_ids.get(str(core)))
            pid_text = f" pid={pid}" if pid is not None else ""
            lines.append(
                f"core {int(core):>3d}  {bar:<{bar_w}} "
                f"{share * 100:5.1f}%{pid_text}"
            )
        if len(core_busy) > 16:
            lines.append(f"… {len(core_busy) - 16} more cores")

    if slo_report is not None:
        lines.append(rule)
        for target in slo_report.get("targets", []):
            flag = "FIRING" if target.get("firing") else (
                "breach" if target.get("breaches") else "ok"
            )
            lines.append(
                f"slo {target['name']:<14} {flag:<7} "
                f"burn_fast {target.get('burn_fast', 0.0):6.2f}  "
                f"burn_slow {target.get('burn_slow', 0.0):6.2f}  "
                f"breaches {target.get('breaches', 0):>4d}  "
                f"alerts {target.get('alerts', 0):>3d}"
            )

    lines.append(rule)
    return "\n".join(lines)


class TraceTailer:
    """Feed a telemetry observer from a JSONL trace file.

    Replays every decodable record through ``observer`` (a
    :class:`TelemetryCollector` or an :class:`SLOEngine`), skipping
    records whose ``kind`` is unknown (traces from newer versions) or
    that are not JSON objects, and holding back a partial final line so
    a trace that is still being appended to can be tailed incrementally
    with repeated :meth:`advance` calls.

    The stream may be text or binary. Prefer binary (``open(path,
    "rb")``) when tailing a live writer: a text-mode ``read()`` raises
    ``UnicodeDecodeError`` if it lands mid-way through a multi-byte
    UTF-8 sequence, while the binary path simply buffers the partial
    bytes until the writer completes the line.
    """

    def __init__(self, stream: IO[Any], observer: Any) -> None:
        self.stream = stream
        self.observer = observer
        self.records = 0
        self.skipped = 0
        #: Held-back partial trailing line; bytes or str to match the
        #: stream, bound on the first non-empty read.
        self._buffer: Any = None

    def advance(self) -> int:
        """Consume everything new in the stream; return records fed."""
        chunk = self.stream.read()
        if not chunk:
            return 0
        fed = 0
        if self._buffer is None:
            self._buffer = chunk[:0]
        self._buffer += chunk
        newline = b"\n" if isinstance(self._buffer, bytes) else "\n"
        lines = self._buffer.split(newline)
        self._buffer = lines.pop()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                self.skipped += 1
                continue
            if self._feed(record):
                fed += 1
            else:
                self.skipped += 1
        self.records += fed
        return fed

    def _feed(self, record: Any) -> bool:
        if not isinstance(record, dict):
            return False
        try:
            name, t, core, data = split_record(record)
            kind = EventKind(name)
        except (TypeError, ValueError):
            return False
        self.observer(Event(kind, t, core, data))
        return True
