"""Power modeling and management: the subframe workload estimator
(Eqs. 3-4), the NONAP/IDLE/NAP/NAP+IDLE policies (Eq. 5), the chip power
model (one per-core state-price table, 100 ms window means of state
occupancy, thermal-leakage feedback), and the analytical power-gating
model (Eqs. 6-9) with the one Eq. 7 window and per-window fold that the
DVFS extension shares.
"""

from .estimator import (
    WorkloadEstimator,
    all_configurations,
    calibrate_from_cost_model,
    calibrate_from_simulation,
    fit_slope_through_origin,
)
from .dvfs import DvfsModel, DvfsTrace, OperatingPoint
from .energy import EnergyReport, energy_report
from .gating import GatingTrace, PowerGatingModel
from .governor import (
    OVER_PROVISION_CORES,
    POLICY_NAMES,
    NapIdlePolicy,
    NapPolicy,
    estimated_active_cores,
    make_policy,
)
from .model import PowerModel, PowerTrace

__all__ = [
    "WorkloadEstimator",
    "all_configurations",
    "calibrate_from_cost_model",
    "calibrate_from_simulation",
    "fit_slope_through_origin",
    "DvfsModel",
    "DvfsTrace",
    "OperatingPoint",
    "EnergyReport",
    "energy_report",
    "GatingTrace",
    "PowerGatingModel",
    "OVER_PROVISION_CORES",
    "POLICY_NAMES",
    "NapIdlePolicy",
    "NapPolicy",
    "estimated_active_cores",
    "make_policy",
    "PowerModel",
    "PowerTrace",
]
