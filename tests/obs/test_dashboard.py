"""Dashboard rendering and JSONL trace tailing (``repro top``).

Rendering is pure (snapshot dict in, text frame out) so the tests pin
frame content without a terminal; the tailer tests cover the two
realities of tailing a live trace — partial final lines and event kinds
from a newer writer.
"""

import io
import json

import pytest

from repro.obs.dashboard import (
    SPARK_CHARS,
    TraceTailer,
    render_dashboard,
    sparkline,
)
from repro.obs.events import Event, EventKind
from repro.obs.slo import SLOEngine
from repro.obs.telemetry import TelemetryCollector


class TestSparkline:
    def test_maps_range_onto_bar_levels(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == SPARK_CHARS[0]
        assert line[-1] == SPARK_CHARS[-1]
        assert len(line) == 3

    def test_truncates_to_width_keeping_newest(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10
        assert line[-1] == SPARK_CHARS[-1]

    def test_flat_and_empty_series(self):
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0]) == SPARK_CHARS[0] * 2

    def test_explicit_bounds(self):
        assert sparkline([0.5], lo=0.0, hi=1.0)[0] not in (
            SPARK_CHARS[0], SPARK_CHARS[-1],
        )


def _populated_engine():
    engine = SLOEngine(
        TelemetryCollector(window=100.0, delta=18.0, workers=2)
    )
    for sf in range(5):
        t0 = sf * 100.0
        engine(Event(EventKind.DISPATCH, t0, -1, {"subframe": sf, "users": 2}))
        engine(Event(EventKind.TASK_START, t0, 0, {"process_id": 77}))
        engine(Event(EventKind.TASK_FINISH, t0 + 40.0, 0, {"kernel": "chest"}))
        engine(
            Event(
                EventKind.SUBFRAME_TERMINAL,
                t0 + 45.0 + 5.0 * sf,
                -1,
                {"subframe": sf, "state": "ok"},
            )
        )
    return engine


class TestRenderDashboard:
    def test_frame_contains_every_section(self):
        engine = _populated_engine()
        frame = render_dashboard(
            engine.telemetry.snapshot(), engine.slo_report()
        )
        assert "repro top" in frame
        assert "subframes        5" in frame
        assert "ok=5" in frame
        assert "latency" in frame and "p99" in frame
        assert "power/w" in frame
        assert "core   0" in frame and "pid=77" in frame
        for name in ("latency-p99", "miss-rate", "shed-rate", "power-budget"):
            assert f"slo {name}" in frame

    def test_renders_from_plain_json(self):
        # Snapshots cross process/file boundaries as JSON; rendering
        # must not depend on live objects.
        engine = _populated_engine()
        snapshot = json.loads(json.dumps(engine.telemetry.snapshot()))
        report = json.loads(json.dumps(engine.slo_report()))
        frame = render_dashboard(snapshot, report, title="replay")
        assert frame.startswith("replay")

    def test_empty_snapshot_renders(self):
        frame = render_dashboard(TelemetryCollector().snapshot())
        assert "subframes        0" in frame

    def test_firing_alert_is_visible(self):
        engine = _populated_engine()
        engine.firing["miss-rate"] = True
        frame = render_dashboard(
            engine.telemetry.snapshot(), engine.slo_report()
        )
        assert "FIRING" in frame


def _record(kind, t, **data):
    return json.dumps({"kind": kind, "t": t, "core": -1, **data})


class TestTraceTailer:
    def test_replays_events_into_the_observer(self):
        lines = [
            _record("dispatch", 0, subframe=0, users=2),
            _record("subframe-terminal", 40, subframe=0, state="ok"),
        ]
        tel = TelemetryCollector(window=100.0, delta=18.0)
        tailer = TraceTailer(io.StringIO("\n".join(lines) + "\n"), tel)
        assert tailer.advance() == 2
        assert tel.counters["subframes"] == 1
        assert tel.snapshot()["counters"]["subframes"] == 1

    def test_partial_final_line_is_held_back(self):
        full = _record("dispatch", 0, subframe=0, users=1)
        stream = io.StringIO(full + "\n" + full[: len(full) // 2])
        tailer = TraceTailer(stream, TelemetryCollector(window=100.0))
        assert tailer.advance() == 1
        # The rest of the line (plus newline) arrives later.
        stream.write(full[len(full) // 2 :] + "\n")
        stream.seek(stream.tell() - (len(full) - len(full) // 2) - 1)
        assert tailer.advance() == 1
        assert tailer.records == 2
        assert tailer.skipped == 0

    def test_unknown_kinds_and_garbage_are_skipped(self):
        lines = [
            _record("from-the-future", 0),
            "not json at all",
            _record("dispatch", 10, subframe=0, users=1),
        ]
        tailer = TraceTailer(
            io.StringIO("\n".join(lines) + "\n"),
            TelemetryCollector(window=100.0),
        )
        assert tailer.advance() == 1
        assert tailer.skipped == 2

    def test_binary_stream_split_record_mid_read(self, tmp_path):
        """Regression: ``repro top --follow`` tails the file in binary mode;
        a record appended in two writes — split mid-way through a
        multi-byte UTF-8 character — must be buffered and retried, not
        crash with UnicodeDecodeError or be half-parsed."""
        record = json.dumps(
            {"kind": "dispatch", "t": 0, "core": -1, "subframe": 0,
             "users": 1, "note": "µcell"},
            ensure_ascii=False,
        ).encode("utf-8")
        cut = record.find("µ".encode("utf-8")) + 1  # inside the 2-byte char
        path = tmp_path / "trace.jsonl"
        with open(path, "wb") as writer:
            writer.write(record + b"\n" + record[:cut])
            writer.flush()
            with open(path, "rb") as reader:
                tailer = TraceTailer(reader, TelemetryCollector(window=100.0))
                assert tailer.advance() == 1  # partial tail held back
                assert tailer.advance() == 0  # still waiting, no crash
                writer.write(record[cut:] + b"\n")
                writer.flush()
                assert tailer.advance() == 1  # completed line now parses
        assert tailer.records == 2
        assert tailer.skipped == 0

    def test_binary_stream_undecodable_line_is_skipped(self):
        bad = b"\xff\xfe not utf-8 at all\n"
        good = _record("dispatch", 0, subframe=0, users=1).encode() + b"\n"
        tailer = TraceTailer(
            io.BytesIO(bad + good), TelemetryCollector(window=100.0)
        )
        assert tailer.advance() == 1
        assert tailer.skipped == 1

    def test_slo_engine_observer_produces_report(self):
        lines = [
            _record("dispatch", 0, subframe=0, users=2),
            _record("subframe-terminal", 90, subframe=0, state="ok"),
        ]
        engine = SLOEngine(TelemetryCollector(window=100.0, delta=18.0))
        tailer = TraceTailer(io.StringIO("\n".join(lines) + "\n"), engine)
        tailer.advance()
        report = engine.slo_report()
        assert report["subframes"] == 1
        assert report["deadline_misses"] == 1
        assert render_dashboard(engine.telemetry.snapshot(), report)
