"""The fold of the event stream: sketch accuracy/merge, rings, collector.

The sketch tests pin the two guarantees everything downstream leans on:
the documented relative-accuracy bound on quantiles and the *exact*
bucket merge (a resumed serve run merges its checkpoint's telemetry cut
and must get the same sketch an uninterrupted run would have built). The memory test is the
regression guard for the unbounded-Histogram bug: one million
observations must not grow the bucket store past ``max_bins``.
"""

import math
import random

import pytest

from repro.obs.events import Event, EventKind
from repro.obs.telemetry import (
    DEFAULT_DELTA_NS,
    DEFAULT_WINDOW_NS,
    IN_FLIGHT_BOUND,
    QuantileSketch,
    TelemetryCollector,
    WindowRing,
)


def num_bins(sketch):
    """Buckets the sketch holds: what its checkpoint payload carries."""
    payload = sketch.to_dict()
    return len(payload["pos"]) + len(payload["neg"])


class TestQuantileSketch:
    def test_relative_accuracy_bound(self):
        rng = random.Random(7)
        values = [rng.lognormvariate(2.0, 1.5) for _ in range(20_000)]
        sketch = QuantileSketch(relative_accuracy=0.01)
        for v in values:
            sketch.observe(v)
        values.sort()
        for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            true = values[int(q * (len(values) - 1))]
            est = sketch.quantile(q)
            assert abs(est - true) <= 0.021 * abs(true), f"q={q}"

    def test_exact_extremes_and_moments(self):
        sketch = QuantileSketch()
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for v in values:
            sketch.observe(v)
        assert sketch.count == len(values)
        assert sketch.sum == pytest.approx(sum(values))
        assert sketch.min == 1.0
        assert sketch.max == 9.0
        assert sketch.quantile(0.0) == 1.0
        assert sketch.quantile(1.0) == 9.0
        assert sketch.mean() == pytest.approx(sum(values) / len(values))

    def test_empty_summary(self):
        assert QuantileSketch().summary() == {"count": 0}

    def test_negative_and_zero_values(self):
        # Deadline slack goes negative on misses; zeros get a dedicated
        # counter so the log-bucket mapping never sees them.
        sketch = QuantileSketch()
        for v in (-5.0, -1.0, 0.0, 0.0, 2.0, 8.0):
            sketch.observe(v)
        assert sketch.min == -5.0
        assert sketch.max == 8.0
        assert sketch.quantile(0.0) == -5.0
        low = sketch.quantile(0.1)
        assert low < 0
        assert abs(low - -5.0) <= 0.021 * 5.0

    def test_merge_is_bucket_exact(self):
        rng = random.Random(11)
        values = [rng.expovariate(0.1) for _ in range(5_000)]
        serial = QuantileSketch()
        for v in values:
            serial.observe(v)
        shards = [QuantileSketch() for _ in range(4)]
        for i, v in enumerate(values):
            shards[i % 4].observe(v)
        merged = QuantileSketch()
        for shard in shards:
            merged.merge(shard)
        a, b = merged.to_dict(), serial.to_dict()
        # Buckets, counts, zeros, extremes: identical. The float sum may
        # differ in the last bits (addition order); that is documented.
        for key in ("pos", "neg", "zeros", "count", "min", "max"):
            assert a[key] == b[key], key
        assert math.isclose(a["sum"], b["sum"], rel_tol=1e-9)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert merged.quantile(q) == serial.quantile(q)

    def test_merge_rejects_mismatched_accuracy(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.05))

    def test_round_trip_is_exact(self):
        sketch = QuantileSketch()
        rng = random.Random(3)
        for _ in range(1_000):
            sketch.observe(rng.gauss(0.0, 10.0))
        clone = QuantileSketch.from_dict(sketch.to_dict())
        assert clone.to_dict() == sketch.to_dict()
        for q in (0.0, 0.5, 0.99, 1.0):
            assert clone.quantile(q) == sketch.quantile(q)

    def test_memory_stays_bounded_over_one_million_observations(self):
        # Regression guard for the old list-backed Histogram: memory
        # must be O(max_bins), not O(n).
        sketch = QuantileSketch(max_bins=512)
        rng = random.Random(5)
        for _ in range(1_000_000):
            sketch.observe(rng.lognormvariate(0.0, 1.0))
        assert sketch.count == 1_000_000
        assert num_bins(sketch) <= 2 * 512
        # The spread here fits comfortably without collapsing.
        assert not sketch.collapsed
        assert 0.0 < sketch.quantile(0.5) < sketch.quantile(0.99)

    def test_collapse_keeps_memory_bounded_and_flags_it(self):
        sketch = QuantileSketch(max_bins=8)
        for exponent in range(40):
            sketch.observe(10.0 ** (exponent - 20))
        assert num_bins(sketch) <= 8
        assert sketch.collapsed
        assert sketch.max == 10.0**19


class TestWindowRing:
    def test_windows_partition_time(self):
        ring = WindowRing(window=100.0, capacity=8)
        ring.add(10, 1.0)
        ring.add(90, 3.0)
        ring.add(250, 5.0)
        series = ring.series()
        assert [e["window"] for e in series] == [0, 2]
        assert series[0]["count"] == 2
        assert series[0]["sum"] == 4.0
        assert series[0]["min"] == 1.0
        assert series[0]["max"] == 3.0
        assert series[1]["mean"] == 5.0

    def test_out_of_order_folds_into_newest_window(self):
        ring = WindowRing(window=100.0)
        ring.add(250, 1.0)
        ring.add(10, 1.0)  # late worker-thread timestamp
        assert len(ring) == 1
        assert ring.series()[0]["count"] == 2

    def test_capacity_bounds_history(self):
        ring = WindowRing(window=10.0, capacity=4)
        for i in range(100):
            ring.add(i * 10.0)
        assert len(ring) == 4
        assert ring.last_index == 99
        assert ring.totals() == (4, 4.0)
        assert ring.totals(last=2) == (2, 2.0)


def _event(kind, t, core=-1, **data):
    return Event(kind, t, core, data)


class TestTelemetryCollector:
    def test_event_stream_feeds_sketches_and_rings(self):
        tel = TelemetryCollector(window=100.0, delta=15.0, workers=2)
        for sf in range(4):
            t0 = sf * 100.0
            tel(_event(EventKind.DISPATCH, t0, subframe=sf, users=3))
            tel(_event(EventKind.TASK_START, t0, core=0))
            tel(
                _event(
                    EventKind.TASK_FINISH, t0 + 30.0, core=0,
                    kernel="chest", cycles=30.0,
                )
            )
            tel(
                _event(
                    EventKind.SUBFRAME_TERMINAL,
                    t0 + 40.0 + 20.0 * sf,
                    subframe=sf,
                    state="ok",
                )
            )
        assert tel.counters["subframes"] == 4
        latency = tel.sketch("subframe_latency")
        assert latency.count == 4
        assert latency.min == 40.0
        assert latency.max == 100.0
        # Latencies 60..100 exceed the 45-unit deadline (3 x DELTA).
        assert tel.counters["deadline_misses"] == 3
        assert tel.deadline_miss_rate() == pytest.approx(0.75)
        assert tel.sketch("kernel_chest").count == 4
        assert tel.terminal_counts == {"ok": 4}
        assert len(tel.ring("latency").series()) == 4

    def test_open_task_fallback_and_core_busy(self):
        # Without a "cycles" payload (the multiprocess re-emit path) the
        # duration comes from the open TASK_START timestamp per core.
        tel = TelemetryCollector(window=100.0, workers=1)
        tel(_event(EventKind.TASK_START, 10.0, core=1, process_id=42))
        tel(_event(EventKind.TASK_FINISH, 35.0, core=1, process_id=42))
        assert tel.core_busy[1] == pytest.approx(25.0)
        assert tel.process_ids[1] == 42
        assert tel.ring("busy").totals() == (1, 25.0)

    def test_folds_scheduler_events(self):
        tel = TelemetryCollector()
        tel(_event(EventKind.DISPATCH, 0, subframe=0, users=4, queue_depth=4))
        tel(_event(EventKind.GOVERNOR, 0, subframe=0, target=3))
        tel(_event(EventKind.USER_START, 0, core=0, subframe=0, user=7))
        tel(_event(EventKind.STEAL, 5, core=1, victim=0, wait=5))
        tel(_event(EventKind.TASK_FINISH, 11, core=1, kernel="chest",
                   cycles=10, stolen=True))
        tel(_event(EventKind.WAKE_CHECK, 6, core=2, took_work=True))
        tel(_event(EventKind.STATE_TRANSITION, 6, core=2,
                   **{"from": "nap", "to": "compute"}))
        tel(_event(EventKind.USER_FINISH, 30, core=0, subframe=0, user=7))
        counters = tel.counters
        assert counters["tasks"] == 1 and counters["stolen_chest"] == 1
        assert counters["steals"] == 1 and counters["wake_hits"] == 1
        assert counters["transitions_to_compute"] == 1
        assert tel.sketch("steal_wait").count == 1
        assert tel.sketch("dispatch_queue_depth").max == 4
        assert tel.sketch("governor_target").max == 3
        assert tel.sketch("user_span").max == 30

    def test_snapshot_is_json_serializable(self):
        import json

        tel = TelemetryCollector()
        tel(_event(EventKind.DISPATCH, 0, subframe=0, users=1))
        tel(_event(EventKind.TASK_FINISH, 3, core=0, cycles=3))
        tel(_event(EventKind.SUBFRAME_TERMINAL, 4, subframe=0, state="ok"))
        snapshot = json.loads(json.dumps(tel.snapshot()))
        assert snapshot["counters"] == {"subframes": 1, "tasks": 1}
        assert snapshot["sketches"]["kernel_task"]["count"] == 1

    def test_power_windows_use_busy_fraction(self):
        from repro.power.model import power_from_busy_fraction

        tel = TelemetryCollector(window=100.0, workers=2)
        # One 100-unit task: half of the window's 200-unit capacity.
        tel(_event(EventKind.TASK_FINISH, 50.0, core=0, cycles=100.0))
        windows = tel.power_windows()
        assert len(windows) == 1
        assert windows[0]["busy_fraction"] == pytest.approx(0.5)
        assert windows[0]["power_w"] == pytest.approx(
            power_from_busy_fraction(0.5, 2)
        )
        assert tel.mean_power_w() == pytest.approx(windows[0]["power_w"])

    def test_merge_shard_matches_serial_reference(self):
        values = [float(v) for v in (3, 1, 4, 1, 5, 9, 2, 6, 5, 3)]
        serial = QuantileSketch()
        for v in values:
            serial.observe(v)
        shards = []
        for lane in range(2):
            sketch = QuantileSketch()
            for v in values[lane::2]:
                sketch.observe(v)
            shards.append(
                {
                    "sketches": {"subframe_latency": sketch.to_dict()},
                    "counters": {"subframes": len(values[lane::2])},
                }
            )
        tel = TelemetryCollector()
        for shard in shards:
            tel.merge_shard(shard)
        merged = tel.sketch("subframe_latency")
        assert merged.to_dict()["pos"] == serial.to_dict()["pos"]
        assert merged.count == serial.count
        assert tel.counters["subframes"] == len(values)

    def test_defaults_are_the_paper_constants(self):
        tel = TelemetryCollector()
        assert tel._window() == DEFAULT_WINDOW_NS
        assert tel.delta is None  # bound on first use
        assert tel.deadline == IN_FLIGHT_BOUND * DEFAULT_DELTA_NS == 15_000_000
        assert tel.delta == DEFAULT_DELTA_NS

    def test_sim_run_binds_cycle_clock(self):
        from repro.phy.params import Modulation
        from repro.sim.cost import CostModel
        from repro.sim.machine import MachineSimulator, SimConfig
        from repro.uplink.parameter_model import SteadyStateParameterModel

        tel = TelemetryCollector()
        sim = MachineSimulator(
            CostModel(),
            config=SimConfig(drain_margin_s=0.1),
            observers=[tel],
        )
        sim.run(
            SteadyStateParameterModel(4, 1, Modulation.QPSK),
            num_subframes=20,
        )
        assert tel.clock == "cycles"
        assert tel.window == pytest.approx(0.1 * tel.clock_hz)
        assert tel.deadline == IN_FLIGHT_BOUND * sim.machine.subframe_period_cycles
        assert tel.counters["subframes"] == 20
        assert tel.sketch("subframe_latency").count == 20
        assert tel.power_windows()
        snapshot = tel.snapshot()
        assert snapshot["window_s"] == pytest.approx(0.1)
        assert snapshot["sketches"]["subframe_latency"]["count"] == 20
