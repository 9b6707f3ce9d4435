"""Fig. 12: estimated vs measured workload over the full evaluation run.

Runs the randomized parameter model on the simulator with no core
deactivation (the measurement must not perturb the schedule), measures
activity per one-second window (200 subframes at DELTA = 5 ms), estimates
activity per subframe via Eqs. 3-4, and reports the error statistics the
paper quotes: "The maximum error is an underestimation of 5.4 %, and the
average error is only 1.2 %."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..power.estimator import WorkloadEstimator, calibrate_from_cost_model
from ..sim.cost import CostModel
from ..sim.machine import AlwaysOnPolicy, MachineSimulator, SimConfig
from ..uplink.parameter_model import RandomizedParameterModel

__all__ = ["EstimationResult", "run_estimation_experiment"]

#: The estimation/measurement window: the paper averages over 200
#: subframes (one second, also the period at which the parameter model's
#: probability changes).
AVERAGING_SUBFRAMES = 200


@dataclass
class EstimationResult:
    """Fig. 12's two series plus error statistics."""

    window_s: float
    measured: np.ndarray
    estimated: np.ndarray

    @property
    def times_s(self) -> np.ndarray:
        return (np.arange(self.measured.size) + 0.5) * self.window_s

    @property
    def error(self) -> np.ndarray:
        """Estimated minus measured (negative = underestimation)."""
        return self.estimated - self.measured

    def max_underestimation(self) -> float:
        return float(max(0.0, -self.error.min()))

    def max_overestimation(self) -> float:
        return float(max(0.0, self.error.max()))

    def mean_absolute_error(self) -> float:
        return float(np.abs(self.error).mean())

    def mean_measured(self) -> float:
        return float(self.measured.mean())


def run_estimation_experiment(
    num_subframes: int = 6_800,
    seed: int = 0,
    cost: CostModel | None = None,
    estimator: WorkloadEstimator | None = None,
) -> EstimationResult:
    """Run the Fig. 12 experiment at the given scale, averaging over
    :data:`AVERAGING_SUBFRAMES`-subframe windows."""
    if num_subframes < AVERAGING_SUBFRAMES:
        raise ValueError("num_subframes must cover at least one averaging window")
    cost = cost or CostModel()
    estimator = estimator or calibrate_from_cost_model(cost)
    model = RandomizedParameterModel(total_subframes=num_subframes, seed=seed)
    window_s = AVERAGING_SUBFRAMES * cost.machine.subframe_period_s
    simulator = MachineSimulator(
        cost,
        policy=AlwaysOnPolicy(cost.machine.num_workers),
        config=SimConfig(window_s=window_s, drain_margin_s=0.0),
    )
    result = simulator.run(model, num_subframes=num_subframes)
    measured = result.trace.activity()

    estimates = np.array(
        [
            estimator.estimate_subframe(model.uplink_parameters(i))
            for i in range(num_subframes)
        ]
    )
    n_windows = measured.size
    usable = n_windows * AVERAGING_SUBFRAMES
    estimated = estimates[:usable].reshape(n_windows, AVERAGING_SUBFRAMES).mean(axis=1)
    return EstimationResult(
        window_s=window_s, measured=measured, estimated=estimated
    )
