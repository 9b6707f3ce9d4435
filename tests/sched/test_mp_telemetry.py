"""Cross-process telemetry merge: worker shards vs a serial reference.

Workers sketch locally (per-kernel durations and per-user payload bits)
and ship the shard back on the existing duplex reply pipe; the parent
merges exactly once per completed task (one task is one whole subframe). The payload-bits sketch is
deterministic — the same subframes decode to the same payload sizes in
any process — so the parent's merged sketch must be *bucket-identical*
to a serial reference, which pins the exactly-once guarantee: a dropped
shard, a double merge, or a replayed retry all change bucket counts.

The SIGKILL test is the hard case: a killed worker's in-flight task is
requeued whole and re-sketched on a surviving worker, and the dead worker
never ships a shard — the merged result must still match exactly.
"""

from collections import Counter

import pytest

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.obs.events import EventKind
from repro.obs.slo import SLOEngine
from repro.obs.telemetry import QuantileSketch, TelemetryCollector
from repro.sched.multiprocess import MultiprocessRuntime
from repro.uplink.parameter_model import RandomizedParameterModel
from repro.uplink.serial import process_subframe_serial
from repro.uplink.subframe import SubframeFactory

NUM_SUBFRAMES = 4
SEED = 3
QUANTILES = (0.0, 0.25, 0.5, 0.9, 0.99, 1.0)


@pytest.fixture(scope="module")
def workload():
    model = RandomizedParameterModel(
        total_subframes=NUM_SUBFRAMES, seed=SEED, max_users=3
    )
    factory = SubframeFactory(seed=SEED)
    subframes = [
        factory.synthesize(model.uplink_parameters(i), i)
        for i in range(NUM_SUBFRAMES)
    ]
    reference = [process_subframe_serial(s) for s in subframes]
    return subframes, reference


def payload_reference(results, relative_accuracy):
    sketch = QuantileSketch(relative_accuracy)
    for result in results:
        for user in result.user_results:
            sketch.observe(float(user.payload.size))
    return sketch


def assert_bucket_identical(merged, reference):
    a, b = merged.to_dict(), reference.to_dict()
    for key in ("pos", "neg", "zeros", "count", "min", "max"):
        assert a[key] == b[key], key
    for q in QUANTILES:
        assert merged.quantile(q) == reference.quantile(q)


def test_worker_shards_merge_to_serial_reference(workload):
    subframes, reference = workload
    telemetry = TelemetryCollector()
    events = []
    runtime = MultiprocessRuntime(
        num_workers=2, observers=[telemetry, events.append]
    )
    results = runtime.run(subframes)
    assert runtime.ledger.ok
    merged = telemetry.sketches.get("mp_user_payload_bits")
    assert merged is not None, "no worker shard reached the parent"
    assert_bucket_identical(
        merged, payload_reference(results, merged.relative_accuracy)
    )
    assert merged.count == sum(len(r.user_results) for r in results)
    # One task is one whole subframe: the workers counted as many tasks as
    # the ledger resolved ok, and as many users as came back.
    assert telemetry.counters["mp_worker_tasks"] == runtime.ledger.counts()["ok"]
    assert telemetry.counters["mp_worker_tasks"] == NUM_SUBFRAMES
    assert telemetry.counters["mp_worker_users"] == merged.count
    # Worker-side kernel sketches arrived under the mp_ prefix (distinct
    # from the parent's event-derived kernel_* sketches — no double
    # counting) and hold one observation per stage window the parent
    # replayed as a TASK_FINISH event.
    replayed = Counter(
        event.data["kernel"]
        for event in events
        if event.kind is EventKind.TASK_FINISH
    )
    kernels = {
        name.removeprefix("mp_kernel_"): s.count
        for name, s in telemetry.sketches.items()
        if name.startswith("mp_kernel_")
    }
    assert kernels, "no kernel shards"
    assert kernels == dict(replayed)
    for result, expected in zip(results, reference):
        assert result.equals(expected)


def test_merge_is_exact_under_sigkill_worker_death(workload):
    subframes, reference = workload
    plan = FaultPlan(
        specs=(
            FaultSpec(
                kind=FaultKind.WORKER_DEATH, subframe=0, target=0, seed=0
            ),
        ),
        seed=0,
    )
    telemetry = TelemetryCollector()
    runtime = MultiprocessRuntime(
        num_workers=2, faults=plan, observers=[telemetry]
    )
    results = runtime.run(subframes)
    assert runtime.ledger.ok
    merged = telemetry.sketches.get("mp_user_payload_bits")
    assert merged is not None
    # The killed worker's task was retried elsewhere; its shard was
    # never shipped, the retry's was merged exactly once.
    assert_bucket_identical(
        merged, payload_reference(results, merged.relative_accuracy)
    )
    for result, expected in zip(results, reference):
        assert result.equals(expected)


def test_slo_engine_as_observer_receives_shards(workload):
    subframes, _ = workload
    engine = SLOEngine(TelemetryCollector())
    runtime = MultiprocessRuntime(num_workers=2, observers=[engine])
    results = runtime.run(subframes)
    assert runtime.ledger.ok
    # Shards route through the engine's merge_shard delegation.
    merged = engine.telemetry.sketches.get("mp_user_payload_bits")
    assert merged is not None
    assert merged.count == sum(len(r.user_results) for r in results)
    # The parent-side event stream fed the latency pipeline too.
    report = engine.slo_report()
    assert report["subframes"] == NUM_SUBFRAMES
    assert report["latency"]["count"] == NUM_SUBFRAMES


def test_telemetry_off_means_no_shard_traffic(workload):
    subframes, _ = workload
    runtime = MultiprocessRuntime(num_workers=2)
    results = runtime.run(subframes)
    assert runtime.ledger.ok
    assert len(results) == NUM_SUBFRAMES
