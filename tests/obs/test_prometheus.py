"""Prometheus exposition: render, read back, and fixture-pinned.

The committed ``fixtures/reference.prom`` pins the exact exposition for
a deterministic snapshot of the fold — counters, gauges, and a
sketch-backed summary — so any accidental change to metric naming,
sample layout, or quantile set (all scrape-breaking for an external
Prometheus) fails loudly.
Regenerate the fixture by running this file as a script.
"""

import math
import os
import re

import pytest

from repro.obs.prometheus import SUMMARY_QUANTILES, render_prometheus
from repro.obs.telemetry import TelemetryCollector

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "reference.prom"
)


def reference_collector() -> TelemetryCollector:
    """Deterministic fold mirroring a small run's shape."""
    tel = TelemetryCollector()
    tel.counters["subframes_dispatched"] = 12
    tel.counters["crc.failures"] = 0  # dot must sanitize to _
    tel.load_factor = 0.5
    latency = tel.sketch("subframe_latency_cycles")
    for v in range(1, 101):
        latency.observe(float(v))
    return tel


def reference_snapshot() -> dict:
    return reference_collector().snapshot()


#: One exposition sample line: ``name{labels} value``.
SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{quantile="([^"]*)"\})? (\S+)$')


def read_exposition(text):
    """``({metric: type}, [(name, quantile or None, value text)])``; every
    line must be a comment or a legal sample line."""
    types, samples = {}, []
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            name, kind = line[len("# TYPE "):].split(" ")
            types[name] = kind
        elif not line.startswith("#"):
            match = SAMPLE.match(line)
            assert match, f"illegal exposition line {line!r}"
            samples.append(match.groups())
    return types, samples


class TestRender:
    def test_counters_gauges_summaries(self):
        text = render_prometheus(reference_snapshot())
        assert "# TYPE repro_subframes_dispatched_total counter" in text
        assert "repro_subframes_dispatched_total 12" in text
        assert "# TYPE repro_crc_failures_total counter" in text
        assert "# TYPE repro_load_factor gauge" in text
        assert "repro_load_factor 0.5" in text
        assert "# TYPE repro_subframe_latency_cycles summary" in text
        assert 'repro_subframe_latency_cycles{quantile="0.5"}' in text
        assert "repro_subframe_latency_cycles_count 100" in text
        assert text.endswith("\n")

    def test_matches_committed_fixture(self):
        with open(FIXTURE, encoding="utf-8") as fh:
            expected = fh.read()
        assert render_prometheus(reference_snapshot()) == expected


class TestRoundTrip:
    def test_parse_recovers_every_sample(self):
        tel = reference_collector()
        types, samples = read_exposition(render_prometheus(tel.snapshot()))
        assert types == {
            "repro_subframes_dispatched_total": "counter",
            "repro_crc_failures_total": "counter",
            "repro_deadline_miss_rate": "gauge",
            "repro_load_factor": "gauge",
            "repro_shed_rate": "gauge",
            "repro_subframe_latency_cycles": "summary",
        }
        by_name = {}
        for name, quantile, value in samples:
            by_name.setdefault(name, []).append((quantile, float(value)))
        assert by_name["repro_subframes_dispatched_total"] == [(None, 12)]
        assert by_name["repro_load_factor"] == [(None, 0.5)]
        summary = by_name["repro_subframe_latency_cycles"]
        assert [quantile for quantile, _ in summary] == ["0.5", "0.9", "0.99"]
        sketch = tel.sketch("subframe_latency_cycles")
        for (_, value), q in zip(summary, SUMMARY_QUANTILES):
            assert value == sketch.quantile(q)
        assert by_name["repro_subframe_latency_cycles_count"] == [(None, 100)]
        (_, total), = by_name["repro_subframe_latency_cycles_sum"]
        assert total == pytest.approx(5050.0)

    def test_parse_handles_inf(self):
        snapshot = {"deadline_miss_rate": math.inf, "load_factor": -math.inf}
        _, samples = read_exposition(render_prometheus({**snapshot, "shed_rate": 0.0}))
        values = {name: float(value) for name, _, value in samples}
        assert values["repro_deadline_miss_rate"] == math.inf
        assert values["repro_load_factor"] == -math.inf

    def test_parse_rejects_garbage(self):
        """A counter name that is no legal metric name is sanitized, so
        the exposition stays readable."""
        snapshot = reference_snapshot()
        snapshot["counters"]["!!! not a metric"] = 3
        _, samples = read_exposition(render_prometheus(snapshot))
        assert ("repro_" + "____not_a_metric_total", None, "3") in samples


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        fh.write(render_prometheus(reference_snapshot()))
    print(f"wrote {FIXTURE}")
