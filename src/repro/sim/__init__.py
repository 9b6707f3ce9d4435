"""TILEPro64-like discrete-event multicore simulator: event engine,
calibrated per-kernel cycle cost model, core/nap semantics, and per-window
state-occupancy traces consumed by the power model.
"""

from .cost import DEFAULT_MACHINE, CostModel, MachineSpec
from .engine import EventEngine
from .machine import AlwaysOnPolicy, MachineSimulator, SimConfig, SimResult
from .trace import CoreState, OccupancyTrace

__all__ = [
    "DEFAULT_MACHINE",
    "CostModel",
    "MachineSpec",
    "EventEngine",
    "AlwaysOnPolicy",
    "MachineSimulator",
    "SimConfig",
    "SimResult",
    "CoreState",
    "OccupancyTrace",
]
