"""Power modeling and management: the subframe workload estimator
(Eqs. 3-4), the NONAP/IDLE/NAP/NAP+IDLE policies (Eq. 5), the chip power
model with thermal-leakage feedback, DAQ-style RMS measurement helpers,
and the analytical power-gating model (Eqs. 6-9).
"""

from .estimator import (
    WorkloadEstimator,
    all_configurations,
    calibrate_from_cost_model,
    calibrate_from_simulation,
    fit_slope_through_origin,
)
from .dvfs import DvfsModel, DvfsTrace, OperatingPoint
from .energy import EnergyReport, energy_report, integrate_energy
from .gating import GatingTrace, PowerGatingModel, PowerGatingParams
from .governor import (
    OVER_PROVISION_CORES,
    POLICY_NAMES,
    NapIdlePolicy,
    NapPolicy,
    estimated_active_cores,
    make_policy,
)
from .measurement import SUPPLY_VOLTAGE_V, currents_from_voltages, rms_windows
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
    "integrate_energy",
    "GatingTrace",
    "PowerGatingModel",
    "PowerGatingParams",
    "OVER_PROVISION_CORES",
    "POLICY_NAMES",
    "NapIdlePolicy",
    "NapPolicy",
    "estimated_active_cores",
    "make_policy",
    "SUPPLY_VOLTAGE_V",
    "currents_from_voltages",
    "rms_windows",
    "PowerModel",
    "PowerTrace",
]
