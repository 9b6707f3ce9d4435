"""SHA-256 of the simulator's full event stream over six fixed runs.

    PYTHONPATH=src python scripts/sim_digest.py

The simulator's counterpart of ``scripts/result_digest.py``. Each run is
recorded by an :class:`~repro.obs.EventRecorder` and written as JSONL
(``EventRecorder.write_jsonl``); the script prints one line per run, the
run's name, its event count and the SHA-256 of that JSONL:

* ``faulted``: 8 workers, NONAP, 20 subframes, a slowdown, two stalls and
  three core crashes (mid-continuation, mid-task, mid-stall) with two
  retries a user and a 3-DELTA deadline;
* ``slot_pipelined``: 8 workers, IDLE, 60 subframes, the per-slot program;
* ``NONAP``, ``IDLE``, ``NAP``, ``NAP+IDLE``: 62 workers, 200 subframes.

Two checkouts schedule identically when every line matches: run the script
from one checkout with ``PYTHONPATH`` set to each checkout's ``src`` in turn.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

__all__ = ["main"]


def _digest(recorder) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.jsonl")
        recorder.write_jsonl(path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    from repro.faults import FaultKind, FaultPlan, FaultSpec, ResilienceConfig
    from repro.obs import EventRecorder
    from repro.power.estimator import calibrate_from_cost_model
    from repro.power.governor import make_policy
    from repro.sim.cost import CostModel, MachineSpec
    from repro.sim.machine import MachineSimulator, SimConfig
    from repro.uplink.parameter_model import RandomizedParameterModel

    faults = FaultPlan(
        specs=(
            FaultSpec(FaultKind.CORE_SLOWDOWN, subframe=1, target=2, param=8.0),
            FaultSpec(FaultKind.CORE_CRASH, subframe=3, target=2),
            FaultSpec(FaultKind.CORE_STALL, subframe=4, target=6, param=200_000),
            FaultSpec(FaultKind.CORE_CRASH, subframe=6, target=5),
            FaultSpec(FaultKind.CORE_STALL, subframe=8, target=7, param=200_000),
            FaultSpec(FaultKind.CORE_CRASH, subframe=8, target=7),
        )
    )
    small = MachineSpec(num_cores=10, num_workers=8)
    runs = [
        ("faulted", small, "NONAP", 20, 7, dict(
            faults=faults,
            resilience=ResilienceConfig(max_retries=2, deadline_subframes=3),
        )),
        ("slot_pipelined", small, "IDLE", 60, 7, dict(slot_pipelined=True)),
    ]
    runs += [
        (policy, MachineSpec(), policy, 200, 1, {})
        for policy in ("NONAP", "IDLE", "NAP", "NAP+IDLE")
    ]
    for name, machine, policy, subframes, seed, options in runs:
        cost = CostModel(machine=machine)
        recorder = EventRecorder()
        sim = MachineSimulator(
            cost,
            policy=make_policy(
                policy, machine.num_workers, calibrate_from_cost_model(cost)
            ),
            config=SimConfig(drain_margin_s=0.2),
            observers=[recorder],
            **options,
        )
        model = RandomizedParameterModel(total_subframes=subframes, seed=seed)
        sim.run(model, num_subframes=subframes)
        print(f"{name:<15} {len(recorder):>7} {_digest(recorder)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
