"""Ablation: the reactive nap wake-check period.

Section V-B: "There is no easy way to reactivate a 'napping' core; a core
therefore periodically wakes up to see if its status has changed." The
period trades pick-up latency against how often the IDLE policy's napping
cores burn wake-check cycles. (The energy cost of checking is charged
analytically per NAP-state occupancy by the power model, so what this
ablation exposes is the latency side of the trade-off.)
"""

import numpy as np

from repro.power.governor import make_policy
from repro.sim.cost import CostModel
from repro.sim.machine import MachineSimulator, SimConfig
from repro.uplink.parameter_model import RandomizedParameterModel

SUBFRAMES = 800


def run_period(period_s: float, cost):
    # Moderate load: wake-up latency, not peak-saturation queueing, should
    # dominate the measured tail.
    model = RandomizedParameterModel(
        total_subframes=SUBFRAMES, seed=0, max_prb=100
    )
    simulator = MachineSimulator(
        cost,
        policy=make_policy("IDLE", cost.machine.num_workers),
        config=SimConfig(wake_period_s=period_s, drain_margin_s=0.2),
    )
    sim = simulator.run(model, num_subframes=SUBFRAMES)
    return float(np.percentile(sim.subframe_latency_s, 95))


def test_ablation_wake_period(benchmark):
    cost = CostModel()
    periods = (0.25e-3, 1e-3, 4e-3)
    latencies = benchmark.pedantic(
        lambda: {p: run_period(p, cost) for p in periods},
        rounds=1,
        iterations=1,
    )
    print()
    print("Ablation — IDLE wake-check period vs p95 subframe latency")
    for period, p95 in latencies.items():
        print(f"  wake every {period * 1000:.2f} ms: p95 latency {p95 * 1000:.1f} ms")

    # Longer wake periods can only delay work pick-up (allowing a little
    # scheduling noise between the two short periods).
    assert latencies[0.25e-3] <= latencies[1e-3] * 1.05 + 1e-4
    assert latencies[1e-3] <= latencies[4e-3] * 1.05 + 1e-4
    # A 4 ms period visibly stretches latency relative to 0.25 ms.
    assert latencies[4e-3] > latencies[0.25e-3]
