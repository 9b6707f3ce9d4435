"""Prometheus text-exposition rendering of the fold's snapshot.

:func:`render_prometheus` turns a
:meth:`~repro.obs.telemetry.TelemetryCollector.snapshot` into the
Prometheus text exposition format (version 0.0.4): the fold's counters as
``counter``, its run-level ratios (``deadline_miss_rate``, ``load_factor``,
``shed_rate``) as ``gauge``, and its quantile sketches as ``summary``
metrics with ``quantile``-labelled samples plus ``_sum``/``_count``
series — so an external scraper can consume a run without touching the
JSON schema. A committed reference fixture pins the exposition so it
stays scrape-stable.
"""

from __future__ import annotations

import math
import re

__all__ = ["render_prometheus"]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_PREFIX = "repro_"

#: Quantiles exported per sketch (the keys of ``QuantileSketch.summary``).
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)
_SUMMARY_KEYS = ("p50", "p90", "p99")

#: Snapshot scalars exported as gauges.
_GAUGES = ("deadline_miss_rate", "load_factor", "shed_rate")


def _metric_name(name: str) -> str:
    """Sanitize an aggregate name into a legal Prometheus metric name."""
    out = _PREFIX + _SANITIZE.sub("_", name)
    if not _NAME_OK.match(out):  # pragma: no cover - prefix guarantees it
        out = "_" + out
    return out


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    v = float(value)
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if math.isnan(v):
        return "NaN"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def render_prometheus(snapshot: dict) -> str:
    """Render a telemetry snapshot in Prometheus text exposition format."""
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _metric_name(name) + "_total"
        lines.append(f"# HELP {metric} Counter {name}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name in _GAUGES:
        metric = _metric_name(name)
        lines.append(f"# HELP {metric} Gauge {name}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(snapshot[name])}")
    for name, summary in sorted(snapshot.get("sketches", {}).items()):
        metric = _metric_name(name)
        count = summary.get("count", 0)
        lines.append(f"# HELP {metric} Summary {name}")
        lines.append(f"# TYPE {metric} summary")
        for q, key in zip(SUMMARY_QUANTILES, _SUMMARY_KEYS):
            lines.append(
                f'{metric}{{quantile="{_format_value(q)}"}} '
                f"{_format_value(summary.get(key, 0.0))}"
            )
        total = summary.get("mean", 0.0) * count
        lines.append(f"{metric}_sum {_format_value(total)}")
        lines.append(f"{metric}_count {_format_value(count)}")
    return "\n".join(lines) + "\n"

