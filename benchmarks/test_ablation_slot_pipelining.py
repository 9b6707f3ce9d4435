"""Ablation: whole-subframe vs per-slot job structure (Fig. 5).

The paper processes channel estimation per slot but batches each user's
data demodulation per subframe ("Data from both slots are required for
processing to proceed"). Splitting every stage per slot is the natural
alternative; it moves work earlier and can shorten the tail of the
latency distribution while leaving the executed cycles untouched.
"""

import numpy as np
import pytest

from repro.sim.cost import CostModel
from repro.sim.machine import MachineSimulator, SimConfig
from repro.sim.trace import CoreState
from repro.uplink.parameter_model import RandomizedParameterModel

SUBFRAMES = 800


@pytest.fixture(scope="module")
def results():
    """``{slot_pipelined: SimResult}`` over one draw, run once."""
    cost = CostModel()
    model = RandomizedParameterModel(total_subframes=SUBFRAMES, seed=0)
    out = {}
    for pipelined in (False, True):
        sim = MachineSimulator(
            cost,
            config=SimConfig(drain_margin_s=0.3),
            slot_pipelined=pipelined,
        )
        out[pipelined] = sim.run(model, num_subframes=SUBFRAMES)
    return out


def test_ablation_slot_pipelining(benchmark, results):
    results = benchmark.pedantic(lambda: results, rounds=1, iterations=1)
    print()
    print("Ablation — whole-subframe (paper) vs per-slot job structure")
    for pipelined, result in results.items():
        label = "per-slot  " if pipelined else "per-frame "
        p50, p95 = np.percentile(result.subframe_latency_s, [50, 95]) * 1e3
        print(
            f"  {label}: p50 {p50:6.1f} ms  p95 {p95:6.1f} ms  "
            f"tasks {result.tasks_executed}"
        )

    plain, piped = results[False], results[True]
    # The reorganization must not change the work done.
    assert piped.users_processed == plain.users_processed
    assert piped.trace.total_cycles(CoreState.COMPUTE) == (
        plain.trace.total_cycles(CoreState.COMPUTE)
    )
    # More schedulable units (split chest + per-slot combiner).
    assert piped.tasks_executed > plain.tasks_executed


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13: the per-slot program's p50 latency is 1.47x the "
    "whole-subframe program's once the serial demap tail no longer "
    "dominates both",
)
def test_slot_pipelining_keeps_the_latency_regime(results):
    # Latency must stay in the same regime (within 25 % on the median).
    p50_plain = np.percentile(results[False].subframe_latency_s, 50)
    p50_piped = np.percentile(results[True].subframe_latency_s, 50)
    print(f"\nper-slot p50 / per-frame p50 = {p50_piped / p50_plain:.2f}")
    assert abs(p50_piped - p50_plain) < 0.25 * p50_plain + 1e-4
