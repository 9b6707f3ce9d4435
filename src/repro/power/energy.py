"""Energy accounting on top of the power traces.

The paper argues in watts; operators think in energy ("reduce the
operational cost, which is a large portion of the base station total
cost-of-ownership", Section I). :func:`energy_report` integrates a power
trace to energy and derives the adoption-relevant figures of merit:
joules per run and kWh per day per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PowerTrace

__all__ = ["EnergyReport", "energy_report", "SECONDS_PER_DAY"]

SECONDS_PER_DAY = 86_400.0


@dataclass
class EnergyReport:
    """Energy figures of merit for one policy run."""

    duration_s: float
    energy_j: float
    mean_power_w: float
    #: Projected energy per day at this operating point (kWh).
    daily_kwh: float

    def savings_vs(self, baseline: "EnergyReport") -> float:
        """Fractional energy saving relative to a baseline run."""
        if baseline.energy_j <= 0:
            raise ValueError("baseline energy must be positive")
        return 1.0 - self.energy_j / baseline.energy_j


def energy_report(
    power: PowerTrace | np.ndarray, window_s: float | None = None
) -> EnergyReport:
    """Build an :class:`EnergyReport` from a power trace.

    Accepts either a :class:`~repro.power.model.PowerTrace` (window length
    taken from it) or a raw per-window watts array plus ``window_s``. Each
    window holds its mean power, so energy is the sum times ``window_s``.
    """
    if isinstance(power, PowerTrace):
        watts = power.total_w
        window_s = power.window_s
    else:
        watts = np.asarray(power, dtype=np.float64)
        if window_s is None:
            raise ValueError("window_s is required for raw power arrays")
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    if watts.size == 0:
        raise ValueError("power trace must be non-empty")
    energy = float(watts.sum() * window_s)
    duration = watts.size * window_s
    mean_power = energy / duration
    return EnergyReport(
        duration_s=duration,
        energy_j=energy,
        mean_power_w=mean_power,
        daily_kwh=mean_power * SECONDS_PER_DAY / 3.6e6,
    )
