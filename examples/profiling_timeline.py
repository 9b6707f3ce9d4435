#!/usr/bin/env python3
"""Profiling walkthrough: where do the cycles go, and what does a
subframe look like on a timeline?

Runs the simulated TILEPro64-like machine under the NAP+IDLE policy with
the profiler and event recorder attached, prints the per-kernel cycle
breakdown (the Fig. 5 stages), per-core utilization, and deadline slack,
then exports the run as a Chrome ``trace_event`` timeline — open
``profiling_timeline.json`` in https://ui.perfetto.dev or
``chrome://tracing`` to see per-core task spans, nap/wake state rows,
and the analytic power-gating trace. Finally profiles the same workload
shape on the threaded runtime: the same four-kernel task breakdown, with
the combiner and finalize joins as serial tasks, in wall-clock time.

Run:  python examples/profiling_timeline.py
"""

from repro.obs import (
    EventRecorder,
    Profiler,
    gating_events_from_active_workers,
    write_chrome_trace,
)
from repro.phy import Modulation
from repro.power import calibrate_from_cost_model
from repro.power.governor import make_policy
from repro.sched import ThreadedRuntime
from repro.sim import CostModel, MachineSpec
from repro.sim.machine import MachineSimulator, SimConfig
from repro.uplink import RandomizedParameterModel, SubframeFactory, UserParameters

SUBFRAMES = 50
WORKERS = 8


def simulator_profile() -> None:
    print(f"=== simulator, NAP+IDLE, {SUBFRAMES} subframes ===")
    cost = CostModel(
        machine=MachineSpec(num_cores=WORKERS + 2, num_workers=WORKERS)
    )
    estimator = calibrate_from_cost_model(cost)
    profiler = Profiler()
    recorder = EventRecorder()
    sim = MachineSimulator(
        cost,
        policy=make_policy("NAP+IDLE", WORKERS, estimator),
        config=SimConfig(drain_margin_s=0.2),
        observers=[profiler, recorder],
    )
    model = RandomizedParameterModel(total_subframes=SUBFRAMES, seed=0)
    result = sim.run(model, num_subframes=SUBFRAMES)

    print("per-kernel breakdown (simulated cycles):")
    for name, entry in profiler.kernel_breakdown().items():
        print(
            f"  {name:>9}: {entry['count']:5d} tasks, "
            f"{entry['total'] / 1e6:8.2f} Mcycles, "
            f"{entry['share'] * 100:5.1f}% "
            f"({entry['stolen']} stolen)"
        )
    utilization = ", ".join(f"{u:.2f}" for u in profiler.per_core_utilization)
    print(f"per-core utilization: [{utilization}]")
    slack = profiler.sketch("deadline_slack")
    print(
        f"deadline slack (cycles): p50 {slack.quantile(0.5):,.0f}, "
        f"min {slack.min:,.0f}; "
        f"miss rate {profiler.deadline_miss_rate() * 100:.1f}%"
    )

    # Timeline: the recorded events plus gating rows synthesized from the
    # run's active-core trace (Eqs. 6-7).
    gating = gating_events_from_active_workers(
        result.active_workers, result.machine.subframe_period_cycles
    )
    count = write_chrome_trace(
        "profiling_timeline.json",
        recorder.events,
        clock="cycles",
        clock_hz=result.machine.clock_hz,
        extra=gating,
        metadata={"policy": "NAP+IDLE", "subframes": SUBFRAMES},
    )
    print(
        f"wrote {count} trace events to profiling_timeline.json "
        "(open in Perfetto or chrome://tracing)\n"
    )


def threaded_profile() -> None:
    print("=== threaded runtime, 4 workers, wall-clock tasks ===")
    users = [
        UserParameters(0, num_prb=8, layers=1, modulation=Modulation.QPSK),
        UserParameters(1, num_prb=16, layers=2, modulation=Modulation.QAM16),
        UserParameters(2, num_prb=24, layers=2, modulation=Modulation.QAM64),
    ]
    factory = SubframeFactory(seed=0)
    subframes = [factory.synthesize(users, index) for index in range(4)]
    profiler = Profiler(keep_spans=False)  # deadline: 3 x the 5 ms DELTA, in ns
    runtime = ThreadedRuntime(num_workers=4, observers=[profiler])
    runtime.run(subframes)
    print("per-kernel breakdown (wall time):")
    for name, entry in profiler.kernel_breakdown().items():
        print(
            f"  {name:>9}: {entry['count']:5d} tasks, "
            f"{entry['total'] / 1e6:8.2f} ms, {entry['share'] * 100:5.1f}% "
            f"({entry['stolen']} stolen)"
        )
    print(f"deadline miss rate: {profiler.deadline_miss_rate() * 100:.1f}%")


def main() -> None:
    simulator_profile()
    threaded_profile()


if __name__ == "__main__":
    main()
