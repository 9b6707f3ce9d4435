"""SLO engine: burn-rate alert lifecycle, SLO_* events, report schema.

The alert rule under test is the multi-window burn rate: an alert fires
only when the fast window burns at ``alert_burn_rate`` *and* the slow
window confirms sustained burn (>= 1.0); it resolves when the fast
window recovers. Events are driven synthetically so every transition is
deterministic.
"""

import pytest

from repro.obs.events import Event, EventKind
from repro.obs.slo import (
    FAST_WINDOWS,
    SLOW_WINDOWS,
    TARGETS,
    SLOEngine,
)
from repro.obs.telemetry import IN_FLIGHT_BOUND, TelemetryCollector

WINDOW = 100.0
DELTA = 18.0
DEADLINE = IN_FLIGHT_BOUND * DELTA  # 54


def _collector():
    return TelemetryCollector(window=WINDOW, delta=DELTA, workers=1)


def _window(engine, w, latencies):
    """Dispatch + terminal for each latency, all terminals in window ``w``.

    Subframe ids are ``1000 * w + i``, so every id is unique.
    """
    t0 = w * WINDOW
    for i, latency in enumerate(latencies):
        sf = 1000 * w + i
        end = t0 + 0.1 * i
        engine(Event(EventKind.DISPATCH, end - latency, -1,
                     {"subframe": sf, "users": 2}))
        engine(
            Event(
                EventKind.SUBFRAME_TERMINAL, end, -1,
                {"subframe": sf, "state": "ok"},
            )
        )


HEALTHY = 10.0
MISSED = DEADLINE + 30.0  # burns latency-p99 at 1.56x, below its 2x alert


class TestBurnRateLifecycle:
    """The default engine: miss rate <= 1 %, alert at 4x burn over the
    3-window fast horizon confirmed by >= 1x over the 12-window slow one."""

    def test_alert_fires_only_with_slow_window_confirmation(self):
        engine = SLOEngine(_collector())
        assert (FAST_WINDOWS, SLOW_WINDOWS) == (3, 12)
        # Nine busy healthy windows, then two light ones.
        for w in range(9):
            _window(engine, w, [HEALTHY] * 20)
        _window(engine, 9, [HEALTHY])
        _window(engine, 10, [HEALTHY])
        assert engine.breach_counts["miss-rate"] == 0
        # One miss: the fast window burns at 1/3 / 1 % = 33x, but the
        # slow window (1 of 183 subframes, 0.55x) does not confirm it.
        _window(engine, 11, [MISSED])
        assert engine.breach_counts["miss-rate"] == 1
        assert not engine.firing["miss-rate"]
        assert engine.alert_counts["miss-rate"] == 0
        # A second miss: 2 of 164 subframes over windows 1-12 is 1.2x.
        _window(engine, 12, [MISSED])
        assert engine.firing["miss-rate"]
        assert engine.alert_counts["miss-rate"] == 1
        kinds = [e.kind for e in engine.events]
        assert EventKind.SLO_BREACH in kinds
        assert EventKind.SLO_ALERT in kinds

    def test_alert_resolves_on_recovery(self):
        engine = SLOEngine(_collector())
        _window(engine, 0, [MISSED])
        assert engine.firing["miss-rate"]
        # Three healthy windows push the miss out of the fast window.
        for w in range(1, 3):
            _window(engine, w, [HEALTHY])
            assert engine.firing["miss-rate"]
        _window(engine, 3, [HEALTHY])
        assert not engine.firing["miss-rate"]
        assert engine.alert_counts["miss-rate"] == 1
        resolved = [
            e for e in engine.events if e.kind is EventKind.SLO_RESOLVED
        ]
        assert [e.data["slo"] for e in resolved] == ["miss-rate"]

    def test_breach_without_alert_when_fast_burn_below_threshold(self):
        # One miss among 30 fast-window subframes is 3.3 %: it breaches
        # the 1 % objective but stays under the 4x (4 %) alert burn.
        engine = SLOEngine(_collector())
        _window(engine, 0, [HEALTHY] * 15)
        _window(engine, 1, [HEALTHY] * 14)
        _window(engine, 2, [MISSED])
        assert engine.breach_counts["miss-rate"] == 1
        assert engine.alert_counts["miss-rate"] == 0
        assert not engine.firing["miss-rate"]

    def test_event_payload_carries_burn_rates(self):
        sink_events = []
        engine = SLOEngine(_collector(), sink=sink_events.append)
        _window(engine, 0, [HEALTHY])
        _window(engine, 1, [MISSED])
        miss = [e for e in sink_events if e.data["slo"] == "miss-rate"]
        assert miss
        data = miss[0].data
        assert data["metric"] == "deadline_miss_rate"
        assert data["objective"] == pytest.approx(0.01)
        assert data["burn_fast"] >= data["burn_slow"] > 0
        assert miss[0].core == -1


class TestTargets:
    def test_default_targets_cover_the_paper_signals(self):
        targets = {t.name: t for t in TARGETS}
        assert set(targets) == {
            "latency-p99", "miss-rate", "shed-rate", "power-budget",
        }
        assert targets["miss-rate"].objective == 0.01
        assert targets["power-budget"].metric == "power_w"
        assert targets["power-budget"].objective == 20.0

    def test_latency_objective_defers_to_bound_deadline(self):
        engine = SLOEngine(_collector())
        latency = next(
            t for t in TARGETS if t.metric == "subframe_latency_p99"
        )
        assert engine._objective(latency) == DEADLINE


class TestReport:
    def test_report_schema_and_series(self):
        engine = SLOEngine(_collector())
        for w in range(6):
            _window(engine, w, [10.0 + 10.0 * w])
        report = engine.slo_report()
        assert report["schema"] == "repro-slo/1"
        assert (report["fast_windows"], report["slow_windows"]) == (3, 12)
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
