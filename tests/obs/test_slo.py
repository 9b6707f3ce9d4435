"""SLO engine: burn-rate alert lifecycle, SLO_* events, report schema.

The alert rule under test is the multi-window burn rate: an alert fires
only when the fast window burns at ``alert_burn_rate`` *and* the slow
window confirms sustained burn (>= 1.0); it resolves when the fast
window recovers. Events are driven synthetically so every transition is
deterministic.
"""

import pytest

from repro.obs.events import Event, EventKind
from repro.obs.slo import SLOEngine, SLOTarget, default_targets
from repro.obs.telemetry import IN_FLIGHT_BOUND, TelemetryCollector

WINDOW = 100.0
DELTA = 18.0
DEADLINE = IN_FLIGHT_BOUND * DELTA  # 54


def _collector():
    return TelemetryCollector(window=WINDOW, delta=DELTA, workers=1)


def _miss_target(burn=2.0):
    return SLOTarget("miss-rate", "deadline_miss_rate", 0.25, burn)


def _subframe(engine, sf, latency):
    """Dispatch + terminal for one subframe, one per window."""
    t0 = sf * WINDOW
    engine(Event(EventKind.DISPATCH, t0, -1, {"subframe": sf, "users": 2}))
    engine(
        Event(
            EventKind.SUBFRAME_TERMINAL,
            t0 + latency,
            -1,
            {"subframe": sf, "state": "ok"},
        )
    )


class TestBurnRateLifecycle:
    def test_alert_fires_only_with_slow_window_confirmation(self):
        engine = SLOEngine(
            _collector(), targets=[_miss_target()],
            fast_windows=2, slow_windows=4,
        )
        # Two healthy windows: no breach, no alert.
        _subframe(engine, 0, 10.0)
        _subframe(engine, 1, 10.0)
        assert engine.breach_counts["miss-rate"] == 0
        assert not engine.firing["miss-rate"]
        # One missing window breaches the fast window (1/2 = 50% > 25%)
        # but the slow window (1/3) is above 1.0 burn too -> alert.
        _subframe(engine, 2, DEADLINE + 30.0)
        assert engine.breach_counts["miss-rate"] >= 1
        assert engine.firing["miss-rate"]
        assert engine.alert_counts["miss-rate"] == 1
        kinds = [e.kind for e in engine.events]
        assert EventKind.SLO_BREACH in kinds
        assert EventKind.SLO_ALERT in kinds

    def test_alert_resolves_on_recovery(self):
        engine = SLOEngine(
            _collector(), targets=[_miss_target()],
            fast_windows=2, slow_windows=4,
        )
        _subframe(engine, 0, DEADLINE + 30.0)
        assert engine.firing["miss-rate"]
        # Healthy windows push the miss out of the fast window.
        for sf in range(1, 4):
            _subframe(engine, sf, 10.0)
        assert not engine.firing["miss-rate"]
        assert engine.alert_counts["miss-rate"] == 1
        resolved = [
            e for e in engine.events if e.kind is EventKind.SLO_RESOLVED
        ]
        assert len(resolved) == 1
        assert resolved[0].data["slo"] == "miss-rate"

    def test_breach_without_alert_when_fast_burn_below_threshold(self):
        # Objective 25%, alert at 4x burn = 100% missing. A 50% fast-
        # window miss rate breaches but must not page.
        engine = SLOEngine(
            _collector(), targets=[_miss_target(burn=4.0)],
            fast_windows=2, slow_windows=4,
        )
        _subframe(engine, 0, 10.0)
        _subframe(engine, 1, DEADLINE + 30.0)
        assert engine.breach_counts["miss-rate"] >= 1
        assert engine.alert_counts["miss-rate"] == 0
        assert not engine.firing["miss-rate"]

    def test_event_payload_carries_burn_rates(self):
        sink_events = []
        engine = SLOEngine(
            _collector(), targets=[_miss_target()],
            sink=sink_events.append,
            fast_windows=2, slow_windows=4,
        )
        _subframe(engine, 0, DEADLINE + 30.0)
        assert sink_events
        data = sink_events[0].data
        assert data["slo"] == "miss-rate"
        assert data["metric"] == "deadline_miss_rate"
        assert data["objective"] == pytest.approx(0.25)
        assert data["burn_fast"] >= data["burn_slow"] > 0
        assert sink_events[0].core == -1


class TestTargets:
    def test_default_targets_cover_the_paper_signals(self):
        targets = {t.name: t for t in default_targets()}
        assert set(targets) == {
            "latency-p99", "miss-rate", "shed-rate", "power-budget",
        }
        assert targets["miss-rate"].objective == 0.01
        assert targets["power-budget"].metric == "power_w"

    def test_latency_objective_defers_to_bound_deadline(self):
        engine = SLOEngine(_collector(), targets=default_targets())
        latency = next(
            t for t in engine.targets if t.metric == "subframe_latency_p99"
        )
        assert engine._objective(latency) == DEADLINE

    def test_unknown_metric_raises(self):
        engine = SLOEngine(
            _collector(), targets=[SLOTarget("bogus", "nope", 1.0)]
        )
        with pytest.raises(ValueError, match="unknown SLO metric"):
            engine.evaluate(0.0)


class TestReport:
    def test_report_schema_and_series(self):
        engine = SLOEngine(_collector(), fast_windows=2, slow_windows=4)
        for sf in range(6):
            _subframe(engine, sf, 10.0 + 10.0 * sf)
        report = engine.slo_report()
        assert report["schema"] == "repro-slo/1"
        assert report["subframes"] == 6
        assert report["window"] == WINDOW
        assert {t["name"] for t in report["targets"]} == {
            "latency-p99", "miss-rate", "shed-rate", "power-budget",
        }
        for target in report["targets"]:
            assert {"observed_fast", "observed_slow", "burn_fast",
                    "burn_slow", "breaches", "alerts",
                    "firing"} <= set(target)
        assert report["latency"]["count"] == 6
        assert report["latency"]["max"] == pytest.approx(60.0)
        assert len(report["latency_windows"]) == 6
        # Only the 60-unit latency exceeds the 54-unit deadline.
        assert report["deadline_misses"] == 1
        assert report["deadline_miss_rate"] == pytest.approx(1 / 6)
        assert report["terminal_counts"] == {"ok": 6}

    def test_engine_forwards_merge_shard(self):
        from repro.obs.telemetry import QuantileSketch

        engine = SLOEngine(_collector())
        sketch = QuantileSketch()
        sketch.observe(4.0)
        # Serve resumes a checkpoint's telemetry cut through the engine.
        engine.merge_shard(
            {"sketches": {"subframe_latency": sketch.to_dict()},
             "counters": {"subframes": 1}}
        )
        assert engine.telemetry.sketch("subframe_latency").count == 1
        assert engine.telemetry.counters["subframes"] == 1

    def test_sim_run_emits_report_end_to_end(self):
        from repro.phy.params import Modulation
        from repro.sim.cost import CostModel
        from repro.sim.machine import MachineSimulator, SimConfig
        from repro.uplink.parameter_model import SteadyStateParameterModel

        engine = SLOEngine()
        sim = MachineSimulator(
            CostModel(),
            config=SimConfig(drain_margin_s=0.1),
            observers=[engine],
        )
        sim.run(
            SteadyStateParameterModel(4, 1, Modulation.QPSK),
            num_subframes=30,
        )
        report = engine.slo_report()
        assert report["clock"] == "cycles"
        assert report["subframes"] == 30
        assert report["latency"]["p99"] > 0
        assert report["power_windows"]
        assert report["mean_power_w"] > 0
