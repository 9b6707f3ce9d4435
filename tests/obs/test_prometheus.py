"""Prometheus exposition: render, parse, and fixture-pinned round trip.

The committed ``fixtures/reference.prom`` pins the exact exposition for
a deterministic snapshot of the fold — counters, gauges, and a
sketch-backed summary — so any accidental change to metric naming,
sample layout, or quantile set (all scrape-breaking for an external
Prometheus) fails loudly.
Regenerate the fixture by running this file as a script.
"""

import math
import os

import pytest

from repro.obs.prometheus import (
    SUMMARY_QUANTILES,
    parse_prometheus,
    render_prometheus,
)
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
        parsed = parse_prometheus(render_prometheus(tel.snapshot()))
        assert parsed["types"] == {
            "repro_subframes_dispatched_total": "counter",
            "repro_crc_failures_total": "counter",
            "repro_deadline_miss_rate": "gauge",
            "repro_load_factor": "gauge",
            "repro_shed_rate": "gauge",
            "repro_subframe_latency_cycles": "summary",
        }
        by_name = {}
        for sample in parsed["samples"]:
            by_name.setdefault(sample["name"], []).append(sample)
        assert by_name["repro_subframes_dispatched_total"][0]["value"] == 12
        assert by_name["repro_load_factor"][0]["value"] == 0.5
        summary = by_name["repro_subframe_latency_cycles"]
        assert [s["labels"]["quantile"] for s in summary] == [
            "0.5", "0.9", "0.99",
        ]
        sketch = tel.sketch("subframe_latency_cycles")
        for sample, q in zip(summary, SUMMARY_QUANTILES):
            assert sample["value"] == sketch.quantile(q)
        count = by_name["repro_subframe_latency_cycles_count"][0]
        assert count["value"] == 100
        total = by_name["repro_subframe_latency_cycles_sum"][0]
        assert total["value"] == pytest.approx(5050.0)

    def test_parse_handles_inf(self):
        parsed = parse_prometheus("repro_x +Inf\nrepro_y -Inf\n")
        assert parsed["samples"][0]["value"] == math.inf
        assert parsed["samples"][1]["value"] == -math.inf

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_prometheus("!!! not a metric line")


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        fh.write(render_prometheus(reference_snapshot()))
    print(f"wrote {FIXTURE}")
