"""Subframe workload estimation (Section VI-A, Eqs. 3-4).

The paper observes (Fig. 11) that activity is linear in the PRB count for
a fixed (layers, modulation) configuration, fits one slope ``k_LM`` per
configuration, and estimates a subframe's workload as::

    estimated_user_activity = PRBs × k_LM                 (Eq. 3)
    estimated_activity      = Σ estimated_user_activity_i (Eq. 4)

Slopes can be obtained two ways:

* :func:`calibrate_from_cost_model` — analytically from the cycle cost
  model (instant; what a perfectly converged measurement would yield,
  minus per-task overheads, which Eq. 3's origin-through fit cannot
  represent);
* :func:`calibrate_from_simulation` — the paper's procedure: steady-state
  single-user runs per configuration over a PRB sweep, least-squares slope
  through the origin (used by the Fig. 11 bench).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..phy.params import ALL_MODULATIONS, MAX_LAYERS, Modulation
from ..sim.cost import CostModel
from ..uplink.parameter_model import SteadyStateParameterModel
from ..uplink.user import UserParameters

__all__ = [
    "WorkloadEstimator",
    "all_configurations",
    "calibrate_from_cost_model",
    "calibrate_from_simulation",
    "fit_slope_through_origin",
]

ConfigKey = tuple[int, str]


def all_configurations() -> list[tuple[int, Modulation]]:
    """The 12 (layers, modulation) configurations of Fig. 11."""
    return [
        (layers, modulation)
        for modulation in ALL_MODULATIONS
        for layers in range(1, MAX_LAYERS + 1)
    ]


def fit_slope_through_origin(prbs: np.ndarray, activities: np.ndarray) -> float:
    """Least-squares slope of activity vs PRBs with zero intercept (Eq. 3)."""
    prbs = np.asarray(prbs, dtype=np.float64)
    activities = np.asarray(activities, dtype=np.float64)
    if prbs.shape != activities.shape or prbs.size == 0:
        raise ValueError("prbs and activities must be equal-length, non-empty")
    denom = float(np.dot(prbs, prbs))
    if denom == 0:
        raise ValueError("all PRB values are zero")
    return float(np.dot(prbs, activities) / denom)


@dataclass
class WorkloadEstimator:
    """Holds the per-configuration slopes and applies Eqs. 3-4."""

    slopes: dict[ConfigKey, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, value in self.slopes.items():
            if value <= 0:
                raise ValueError(f"slope for {key} must be positive, got {value}")

    def slope(self, layers: int, modulation: Modulation) -> float:
        try:
            return self.slopes[(layers, modulation.value)]
        except KeyError:
            raise KeyError(
                f"no calibration for {layers} layers / {modulation.value}"
            ) from None

    def estimate_user(self, user: UserParameters) -> float:
        """Eq. 3: one user's estimated activity share."""
        return user.num_prb * self.slope(user.layers, user.modulation)

    def estimate_subframe(self, users: list[UserParameters]) -> float:
        """Eq. 4: sum over the subframe's users."""
        return float(sum(self.estimate_user(u) for u in users))


#: The allocation the analytic slopes are read at: the full 200 PRBs, so
#: constant per-task overheads are amortized the same way a
#: measurement-based fit would amortize them.
REFERENCE_PRB = 200


def calibrate_from_cost_model(cost: CostModel) -> WorkloadEstimator:
    """Analytic slopes: activity per PRB straight from the cost model, at
    :data:`REFERENCE_PRB`."""
    slopes: dict[ConfigKey, float] = {}
    for layers, modulation in all_configurations():
        user = UserParameters(
            user_id=0, num_prb=REFERENCE_PRB, layers=layers, modulation=modulation
        )
        slopes[(layers, modulation.value)] = cost.user_activity(user) / REFERENCE_PRB
    return WorkloadEstimator(slopes=slopes)


def calibrate_from_simulation(
    cost: CostModel,
    prb_values: Sequence[int] = (2, 50, 100, 150, 200),
    settle_subframes: int = 40,
    measure_subframes: int = 160,
) -> tuple[WorkloadEstimator, dict[ConfigKey, tuple[np.ndarray, np.ndarray]]]:
    """The paper's calibration: steady-state sweeps on the simulator.

    For every (layers, modulation) configuration and every PRB count, a
    single fixed user is dispatched every DELTA; activity is measured from
    the simulator's compute-cycle trace after a settling period
    (Section VI-A uses 10 s per point; the defaults here use a shorter
    window that converges to the same slopes).

    Returns the fitted estimator plus the raw (prbs, activities) sweep per
    configuration — the data behind Fig. 11.
    """
    from ..sim.machine import AlwaysOnPolicy, MachineSimulator, SimConfig

    if min(prb_values) < 2 or max(prb_values) > 200:
        raise ValueError("prb_values must lie within [2, 200]")
    slopes: dict[ConfigKey, float] = {}
    sweeps: dict[ConfigKey, tuple[np.ndarray, np.ndarray]] = {}
    total = settle_subframes + measure_subframes
    window_s = cost.machine.subframe_period_s
    for layers, modulation in all_configurations():
        activities = []
        for num_prb in prb_values:
            model = SteadyStateParameterModel(
                num_prb=num_prb, layers=layers, modulation=modulation
            )
            simulator = MachineSimulator(
                cost,
                policy=AlwaysOnPolicy(cost.machine.num_workers),
                config=SimConfig(window_s=window_s, drain_margin_s=0.0),
            )
            result = simulator.run(model, num_subframes=total)
            activity = result.trace.activity()
            activities.append(float(activity[settle_subframes:total].mean()))
        prbs = np.array(prb_values, dtype=np.float64)
        acts = np.array(activities, dtype=np.float64)
        key = (layers, modulation.value)
        slopes[key] = fit_slope_through_origin(prbs, acts)
        sweeps[key] = (prbs, acts)
    return WorkloadEstimator(slopes=slopes), sweeps
