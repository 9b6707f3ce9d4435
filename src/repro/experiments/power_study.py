"""The power-management study: Figs. 13-16 and Tables I-II.

One function runs the randomized workload under every policy (NONAP, IDLE,
NAP, NAP+IDLE), evaluates the power model over each run's occupancy trace,
applies the analytical power-gating model (Eqs. 6-9) on top of NAP+IDLE,
and assembles the two tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..power.estimator import WorkloadEstimator, calibrate_from_cost_model
from ..power.gating import GatingTrace, PowerGatingModel
from ..power.governor import POLICY_NAMES, NapPolicy, make_policy
from ..power.model import PowerModel, PowerTrace
from ..sim.cost import CostModel
from ..sim.machine import MachineSimulator, SimConfig, SimResult
from ..uplink.parameter_model import RandomizedParameterModel, TraceParameterModel

__all__ = ["PolicyRun", "PowerStudyResult", "run_power_study"]

#: The power measurement window: the paper's 100 ms windows.
WINDOW_S = 0.1


@dataclass
class PolicyRun:
    """One policy's simulation + power evaluation."""

    name: str
    sim: SimResult
    power: PowerTrace
    #: Raw Eq. 5 estimates per subframe (NAP family only) — Fig. 13.
    estimated_active_cores: np.ndarray | None = None

    def mean_total_w(self) -> float:
        return self.power.mean_total()


@dataclass
class PowerStudyResult:
    """Everything Figs. 13-16 and Tables I-II need."""

    runs: dict[str, PolicyRun]
    gating: GatingTrace
    gated_power_w: np.ndarray
    estimator: WorkloadEstimator
    window_s: float

    def mean_power(self, name: str) -> float:
        if name == "PowerGating":
            return float(self.gated_power_w.mean())
        return self.runs[name].mean_total_w()

    def table1(self) -> list[tuple[str, float, float]]:
        """Table I: (technique, power above base, reduction vs NONAP)."""
        base = self.runs["NONAP"].power.base_power_w
        nonap = self.mean_power("NONAP") - base
        rows = []
        for name in POLICY_NAMES:
            above = self.mean_power(name) - base
            rows.append((name, above, 1.0 - above / nonap))
        return rows

    def table2(self) -> list[tuple[str, float, float, float]]:
        """Table II: (technique, total W, vs NONAP, vs IDLE)."""
        nonap = self.mean_power("NONAP")
        idle = self.mean_power("IDLE")
        rows = []
        for name in (*POLICY_NAMES, "PowerGating"):
            power = self.mean_power(name)
            rows.append((name, power, power / nonap - 1.0, power / idle - 1.0))
        return rows


def run_power_study(
    num_subframes: int = 6_800,
    seed: int = 0,
    cost: CostModel | None = None,
    estimator: WorkloadEstimator | None = None,
) -> PowerStudyResult:
    """Run the full Section VI study at the given scale.

    The paper runs 68 000 subframes (340 s at DELTA = 5 ms); the default
    here is a 10x-scaled 6 800-subframe run with the identical triangle
    workload shape. Pass ``num_subframes=68_000`` for paper scale.
    """
    cost = cost or CostModel()
    estimator = estimator or calibrate_from_cost_model(cost)
    draw = RandomizedParameterModel(total_subframes=num_subframes, seed=seed)
    # Drawn once: every policy replays the same subframes.
    model = TraceParameterModel(list(draw.iter_subframes(num_subframes)))
    power_model = PowerModel()
    runs: dict[str, PolicyRun] = {}
    for name in POLICY_NAMES:
        policy = make_policy(name, cost.machine.num_workers, estimator)
        simulator = MachineSimulator(
            cost, policy=policy, config=SimConfig(window_s=WINDOW_S, drain_margin_s=0.0)
        )
        sim_result = simulator.run(model, num_subframes=num_subframes)
        power = power_model.evaluate(sim_result.trace, cost.machine.clock_hz)
        history = None
        if isinstance(policy, NapPolicy):
            history = np.array(policy.active_cores_history, dtype=np.int64)
        runs[name] = PolicyRun(
            name=name,
            sim=sim_result,
            power=power,
            estimated_active_cores=history,
        )

    # Power gating rides on NAP+IDLE (Section VI-C / Fig. 16).
    gating_model = PowerGatingModel()
    reference = runs["NAP+IDLE"]
    active = reference.estimated_active_cores
    gating = gating_model.evaluate(active)
    gated = gating_model.apply_to_power(
        reference.power.total_w,
        WINDOW_S,
        active,
        cost.machine.subframe_period_s,
    )
    return PowerStudyResult(
        runs=runs,
        gating=gating,
        gated_power_w=gated,
        estimator=estimator,
        window_s=WINDOW_S,
    )
