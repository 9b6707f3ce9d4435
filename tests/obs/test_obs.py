"""Tests for the observability toolkit: events, recorder, metrics, checker."""

import json

import pytest

from repro.obs import (
    Event,
    EventKind,
    EventRecorder,
    InvariantViolation,
    SchedulerInvariantChecker,
    TelemetryCollector,
    read_jsonl,
)


def ev(kind, t=0, core=-1, **data):
    return Event(kind, t, core, data or None)


class TestEvent:
    def test_to_dict_flattens_payload(self):
        event = ev(EventKind.STEAL, t=120, core=3, victim=1, wait=40)
        assert event.to_dict() == {
            "kind": "steal",
            "t": 120,
            "core": 3,
            "victim": 1,
            "wait": 40,
        }

    def test_kind_serializes_as_plain_string(self):
        payload = json.dumps(ev(EventKind.DISPATCH).to_dict())
        assert '"dispatch"' in payload


class TestEventRecorder:
    def test_records_and_counts(self):
        rec = EventRecorder()
        rec(ev(EventKind.TASK_START))
        rec(ev(EventKind.TASK_FINISH))
        rec(ev(EventKind.TASK_START))
        assert len(rec) == 3
        assert rec.counts() == {"task-start": 2, "task-finish": 1}
        assert len(rec.filter(EventKind.TASK_START)) == 2

    def test_ring_buffer_drops_oldest(self):
        rec = EventRecorder(capacity=2)
        for t in range(5):
            rec(ev(EventKind.WAKE_CHECK, t=t))
        assert len(rec) == 2
        assert rec.dropped == 3
        assert [e.t for e in rec] == [3, 4]

    def test_jsonl_round_trip(self, tmp_path):
        rec = EventRecorder()
        rec(ev(EventKind.DISPATCH, t=0, subframe=0, users=3))
        rec(ev(EventKind.TASK_FINISH, t=99, core=1, cycles=42))
        path = tmp_path / "trace.jsonl"
        assert rec.write_jsonl(path) == 2
        rows = read_jsonl(path)
        assert rows[0]["kind"] == "dispatch" and rows[0]["users"] == 3
        assert rows[1]["core"] == 1 and rows[1]["cycles"] == 42

    def test_clear_resets(self):
        rec = EventRecorder()
        rec(ev(EventKind.GOVERNOR))
        rec.clear()
        assert len(rec) == 0 and rec.dropped == 0


class TestMetricsRegistry:
    """The fold's named sketches are the registry its histograms live in."""

    def test_histogram_percentiles(self):
        h = TelemetryCollector().sketch("lat")
        for v in range(1, 101):
            h.observe(v)
        assert h.count == 100
        # count/mean/max are exact; percentiles come from the bounded
        # quantile sketch, accurate to its documented ±1% relative error
        # (3% tolerance leaves headroom for interpolation differences).
        assert h.mean() == pytest.approx(50.5)
        assert h.quantile(0.50) == pytest.approx(50.5, rel=0.03)
        summary = h.summary()
        assert summary["max"] == 100
        assert summary["p90"] == pytest.approx(90.1, rel=0.03)


class TestSchedulerInvariantChecker:
    def test_detects_overlapping_idle_sets(self, monkeypatch):
        """The end-of-run check flags a core in both _idle_spin and _disabled."""
        from repro.sim.machine import MachineSimulator, SimConfig
        from repro.sim.cost import CostModel, MachineSpec
        from repro.uplink.parameter_model import SteadyStateParameterModel
        from repro.phy.params import Modulation

        cost = CostModel(machine=MachineSpec(num_cores=6, num_workers=4))
        checker = SchedulerInvariantChecker(strict=False)
        sim = MachineSimulator(
            cost, config=SimConfig(drain_margin_s=0.1), observers=[checker]
        )
        model = SteadyStateParameterModel(4, 1, Modulation.QPSK)
        result = sim.run(model, num_subframes=2)
        assert checker.ok
        # Corrupt the final state and run the end-of-run check again.
        sim._idle_spin.add(0)
        sim._disabled.add(0)
        checker.on_run_end(sim, result)
        assert not checker.ok
        assert any("_idle_spin and _disabled" in v for v in checker.violations)
        # A strict checker bound to the same corrupted simulator raises.
        strict = SchedulerInvariantChecker(strict=True)
        strict.on_run_start(sim)
        with pytest.raises(InvariantViolation, match="idle sets overlap"):
            strict.on_run_end(sim, result)

    def test_an_event_before_run_start_is_a_violation(self):
        """The checker validates one bound simulator run; attached anywhere
        else it must say so instead of reporting a clean run."""
        with pytest.raises(InvariantViolation, match="before on_run_start"):
            SchedulerInvariantChecker(strict=True)(ev(EventKind.TASK_START))
        checker = SchedulerInvariantChecker(strict=False)
        checker(ev(EventKind.DISPATCH, t=7))
        assert checker.events_checked == 1
        assert checker.violations == [
            "t=7: dispatch event before on_run_start "
            "(the checker validates MachineSimulator runs only)"
        ]

    def test_summary_mentions_counts(self):
        checker = SchedulerInvariantChecker(strict=False)
        checker(ev(EventKind.TASK_START))
        assert "1 events checked" in checker.summary()
