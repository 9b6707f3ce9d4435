"""Overhead of the observability hooks when no observer is attached.

The emission sites in :class:`repro.sim.machine.MachineSimulator` are a
single ``is not None`` check when tracing is off (``_emit is None``), so a
plain run must stay within a few percent of the pre-instrumentation cost.
The acceptance bound here is <5% slowdown hooks-off vs hooks-on serving
as the reference for what full tracing costs.

The serial-stage tests bound the cost of the threaded runtime's join
events — the combiner and finalize ``TASK_START``/``TASK_FINISH`` pairs it
emits on the user thread whenever an observer is attached: against the
observer-free run, their cost must stay under 5% of the run.
"""

import time

from repro.obs import Profiler
from repro.obs.events import Event, EventKind
from repro.phy import Modulation
from repro.power.estimator import calibrate_from_cost_model
from repro.power.governor import make_policy
from repro.sched.threaded import ThreadedRuntime
from repro.sim.cost import CostModel, MachineSpec
from repro.sim.machine import MachineSimulator, SimConfig
from repro.uplink import SubframeFactory, UserParameters
from repro.uplink.parameter_model import RandomizedParameterModel
from repro.uplink.tasks import describe_user_tasks

SUBFRAMES = 1_000
WORKERS = 16


def run_once(observers=None):
    cost = CostModel(
        machine=MachineSpec(num_cores=WORKERS + 2, num_workers=WORKERS)
    )
    estimator = calibrate_from_cost_model(cost)
    sim = MachineSimulator(
        cost,
        policy=make_policy("NAP+IDLE", WORKERS, estimator),
        config=SimConfig(drain_margin_s=0.2),
        observers=observers,
    )
    model = RandomizedParameterModel(total_subframes=SUBFRAMES, seed=0)
    start = time.perf_counter()
    result = sim.run(model, num_subframes=SUBFRAMES)
    elapsed = time.perf_counter() - start
    return sim, result, elapsed


def test_disabled_tracing_keeps_hooks_dormant():
    sim, result, _ = run_once(observers=None)
    assert sim._emit is None
    assert result.tasks_executed > 0


def test_disabled_tracing_overhead_under_five_percent():
    """Hooks-off runtime vs a no-op observer attached (hooks live)."""

    class NullObserver:
        def __call__(self, event):
            pass

    # Interleave and keep the best of 3 to suppress scheduler noise.
    off_times, on_times = [], []
    for _ in range(3):
        _, off_result, off_s = run_once(observers=None)
        _, on_result, on_s = run_once(observers=[NullObserver()])
        assert off_result.tasks_executed == on_result.tasks_executed
        off_times.append(off_s)
        on_times.append(on_s)
    off_best, on_best = min(off_times), min(on_times)
    print(
        f"\nhooks off: {off_best:.3f}s  hooks on (null observer): "
        f"{on_best:.3f}s  ratio {on_best / off_best:.3f}"
    )
    # Hooks-off must not exceed hooks-on by more than the 5% budget: the
    # dormant path is an identity check, so any real regression here
    # means events are being constructed with no observer attached.
    assert off_best <= on_best * 1.05


def _small_subframes(count: int = 4):
    factory = SubframeFactory(seed=0)
    users = [
        UserParameters(0, 24, 2, Modulation.QAM64),
        UserParameters(1, 16, 2, Modulation.QAM16),
        UserParameters(2, 8, 1, Modulation.QPSK),
    ]
    return [factory.synthesize(users, index) for index in range(count)]


def _run_threaded(subframes, observers):
    runtime = ThreadedRuntime(num_workers=2, steal_seed=0, observers=observers)
    start = time.perf_counter()
    runtime.run(subframes)
    return time.perf_counter() - start


def test_serial_stage_event_overhead_under_five_percent():
    """Serial-stage (join) task events must cost <5% of the observer-free run.

    The threaded runtime emits its joins' task events whenever it has an
    observer, so the baseline is the run with none. Thread-scheduling
    noise on shared runners exceeds 5% run-to-run, so the asserted bound
    is noise-immune: microbenchmark the true unit cost of one join event
    (clock read + Event allocation + profiler dispatch), multiply by the
    number of join events the scenario emits, and require that total to
    stay under 5% of the observer-free wall time. The direct end-to-end
    delta is printed, and sanity-bounded loosely.
    """
    subframes = _small_subframes()
    off_times, on_times = [], []
    for _ in range(3):
        off_times.append(_run_threaded(subframes, observers=None))
        profiler = Profiler(keep_spans=False)
        on_times.append(_run_threaded(subframes, observers=[profiler]))
    off_best, on_best = min(off_times), min(on_times)

    # Join events actually emitted: 4 per user (2 serial stages).
    users = sum(len(s.slices) for s in subframes)
    join_events = 4 * users
    breakdown = profiler.kernel_breakdown()
    assert 2 * (
        breakdown["combiner"]["count"] + breakdown["finalize"]["count"]
    ) == join_events

    # Unit cost of one event, end to end (emit site -> profiler update).
    reps = 20_000
    data = {"stolen": False, "kernel": "combiner", "subframe": 0, "user": 0,
            "serial": True}
    begin = time.perf_counter()
    for _ in range(reps // 2):
        profiler(Event(EventKind.TASK_START, time.monotonic_ns(), 0, data))
        profiler(Event(EventKind.TASK_FINISH, time.monotonic_ns(), 0, data))
    per_event_s = (time.perf_counter() - begin) / reps

    join_cost_s = join_events * per_event_s
    print(
        f"\nno observer: {off_best:.3f}s  profiler: {on_best:.3f}s "
        f"(end-to-end ratio {on_best / off_best:.3f}); "
        f"{join_events} join events x {per_event_s * 1e6:.2f}us = "
        f"{join_cost_s * 1e3:.2f}ms ({join_cost_s / off_best * 100:.2f}%)"
    )
    assert join_cost_s < off_best * 0.05
    # Gross-regression guard on the measured delta (loose: noise floor on
    # shared runners is ~10% even between identical configurations).
    assert on_best <= off_best * 1.5


def _paper_size_subframes(count: int = 4):
    """Full-size users (the paper's 20 MHz cell is 100 PRBs).

    The telemetry-overhead bound is asserted at representative task
    granularity: the tiny ``_small_subframes`` users make each task a few
    tens of microseconds, which inflates the event-to-compute ratio an
    order of magnitude past any real workload.
    """
    factory = SubframeFactory(seed=0)
    users = [
        UserParameters(0, 100, 4, Modulation.QAM64),
        UserParameters(1, 64, 2, Modulation.QAM16),
        UserParameters(2, 32, 1, Modulation.QPSK),
    ]
    return [factory.synthesize(users, index) for index in range(count)]


def _replay_cost_s(events, observers, repeats: int = 5) -> float:
    """Best-of-``repeats`` cost of the real event mix through observers."""
    best = None
    for _ in range(repeats):
        fresh = [factory() for factory in observers]
        start = time.perf_counter()
        for event in events:
            for observer in fresh:
                observer(event)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _record_run(subframes):
    from repro.obs.recorder import EventRecorder

    recorder = EventRecorder()
    ThreadedRuntime(num_workers=2, steal_seed=0, observers=[recorder]).run(
        subframes
    )
    return recorder.events


def test_spans_plus_telemetry_overhead_under_five_percent():
    """Spans AND telemetry enabled together must stay under 5%.

    The full service-mode observer stack — profiling spans plus the SLO
    engine's sketch/ring/burn-rate pipeline — against the observer-free
    baseline. Noise-immune like the serial-stage bound, but honest about
    the event mix: record the scenario's actual stream once (any observer
    gets every task event, joins included), then measure the cost of
    replaying that exact
    stream through the SLO engine over a profiler (one fold of the stream
    serves both) and require it under 5% of the observer-free wall time.
    """
    from repro.obs import SLOEngine

    subframes = _paper_size_subframes()
    off_best = min(_run_threaded(subframes, observers=None) for _ in range(3))
    events = _record_run(subframes)
    cost_s = _replay_cost_s(
        events, [lambda: SLOEngine(Profiler(keep_spans=False))]
    )
    profiler = Profiler(keep_spans=False)
    engine = SLOEngine(profiler)
    for event in events:
        engine(event)
    breakdown = profiler.kernel_breakdown()
    assert breakdown["combiner"]["count"] == breakdown["finalize"]["count"] > 0
    assert engine.slo_report()["subframes"] == len(subframes)
    assert profiler.sketch("subframe_latency").count == len(subframes)
    print(
        f"\nspans+telemetry: {len(events)} events cost {cost_s * 1e3:.2f}ms "
        f"vs {off_best * 1e3:.1f}ms run ({cost_s / off_best * 100:.2f}%)"
    )
    assert cost_s < off_best * 0.05


def test_profiler_attributes_all_four_kernels():
    """With an observer, the default breakdown sees every Fig. 5 kernel,
    with the simulator's task counts (``describe_user_tasks``)."""
    subframes = _small_subframes(count=2)
    profiler = Profiler(keep_spans=False)
    _run_threaded(subframes, observers=[profiler])
    breakdown = profiler.kernel_breakdown()
    assert list(breakdown) == ["chest", "combiner", "symbol", "finalize"]
    shares = sum(entry["share"] for entry in breakdown.values())
    assert abs(shares - 1.0) < 1e-9
    expected = {kind: 0 for kind in breakdown}
    for subframe in subframes:
        for user_slice in subframe.slices:
            chest, combiner, data, finalize = describe_user_tasks(
                user_slice.user
            )
            for task in (*chest, combiner, *data, finalize):
                expected[task.kind] += 1
    layers = sum(u.user.layers for s in subframes for u in s.slices)
    users = sum(len(s.slices) for s in subframes)
    assert expected == {"chest": 4 * layers, "combiner": users,
                        "symbol": 12 * layers, "finalize": users}
    assert {k: e["count"] for k, e in breakdown.items()} == expected
