"""Chip power model (substitute for the paper's DAQ measurements).

Total power is decomposed the way the paper's measurements imply:

* a constant **base power** of 14 W — what the TILEPro64 dissipates with
  all cores napped (Section V-B);
* **dynamic power** per worker core by state: computing, busy-spinning
  (slightly cheaper than computing), reactively napping (clock-gated but
  periodically waking to poll — the overhead the paper blames for IDLE's
  gap to NAP), or proactively disabled (deep nap, no polling);
* a **thermal leakage** term: a first-order thermal RC driven by total
  power, with leakage growing linearly in temperature. This reproduces the
  paper's observation that NONAP's 18 % higher average power "raises the
  TILEPro64's temperature, which increases power" and the elevated tail
  after peak load.

Default per-core powers are calibrated against Tables I and II: at 100 %
activity dynamic power is ~11.7 W (62 cores × 188 mW) plus thermal
leakage; busy-spinning costs ~84 % of computing; a reactively napping core
averages ~24 mW (wake-check duty); a disabled core ~8 mW.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.trace import CoreState, OccupancyTrace

__all__ = [
    "PowerModelParams",
    "PowerModel",
    "PowerTrace",
    "power_from_busy_fraction",
]


@dataclass(frozen=True)
class PowerModelParams:
    """All knobs of the power model (watts, seconds, kelvin)."""

    base_power_w: float = 14.0
    compute_power_w: float = 0.188  # per core at 100 % duty
    spin_power_w: float = 0.158
    reactive_nap_power_w: float = 0.024
    disabled_power_w: float = 0.008
    # Thermal feedback.
    thermal_resistance_c_per_w: float = 1.5
    thermal_time_constant_s: float = 60.0
    leakage_w_per_c: float = 0.09
    ambient_c: float = 45.0

    def __post_init__(self) -> None:
        if self.base_power_w < 0:
            raise ValueError("base_power_w must be >= 0")
        for name in (
            "compute_power_w",
            "spin_power_w",
            "reactive_nap_power_w",
            "disabled_power_w",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not self.disabled_power_w <= self.reactive_nap_power_w <= self.spin_power_w:
            raise ValueError(
                "expected disabled <= reactive nap <= spin per-core power"
            )
        if self.thermal_time_constant_s <= 0:
            raise ValueError("thermal_time_constant_s must be positive")

    @property
    def reference_temperature_c(self) -> float:
        """Steady-state die temperature when dissipating only base power.

        Leakage is defined as zero at this point (it is already inside the
        measured 14 W base)."""
        return self.ambient_c + self.thermal_resistance_c_per_w * self.base_power_w


@dataclass
class PowerTrace:
    """Per-window power decomposition produced by :class:`PowerModel`."""

    window_s: float
    base_power_w: float
    total_w: np.ndarray
    dynamic_w: np.ndarray
    leakage_w: np.ndarray
    temperature_c: np.ndarray

    @property
    def times_s(self) -> np.ndarray:
        return (np.arange(self.total_w.size) + 0.5) * self.window_s

    def mean_total(self) -> float:
        return float(self.total_w.mean())


def power_from_busy_fraction(
    busy_fraction,
    num_workers: int,
    params: PowerModelParams | None = None,
):
    """Windowed power estimate from a busy fraction (no occupancy trace).

    The streaming telemetry layer only sees task durations, not per-core
    state occupancies, so its per-window power estimate assumes each of
    ``num_workers`` cores draws compute power for the window's busy
    fraction and reactive-nap power for the remainder (the NAP policy's
    steady state) — the live analog of the paper's 100 ms RMS windows,
    without the thermal feedback loop. Accepts a scalar or array of busy
    fractions (clipped to [0, 1]) and returns watts with matching shape.
    """
    p = params or PowerModelParams()
    busy = np.clip(np.asarray(busy_fraction, dtype=np.float64), 0.0, 1.0)
    dynamic = num_workers * (
        busy * p.compute_power_w + (1.0 - busy) * p.reactive_nap_power_w
    )
    result = p.base_power_w + dynamic
    return float(result) if result.ndim == 0 else result


class PowerModel:
    """Turns a state-occupancy trace into a power trace."""

    def __init__(self, params: PowerModelParams | None = None) -> None:
        self.params = params or PowerModelParams()

    def dynamic_power(self, trace: OccupancyTrace) -> np.ndarray:
        """Per-window dynamic power from state occupancies (no thermal)."""
        p = self.params
        per_state = {
            CoreState.COMPUTE: p.compute_power_w,
            CoreState.SPIN: p.spin_power_w,
            CoreState.NAP: p.reactive_nap_power_w,
            CoreState.DISABLED: p.disabled_power_w,
        }
        dynamic = np.zeros(trace.num_windows)
        for state, watts in per_state.items():
            dynamic += trace.occupancy_fraction(state) * trace.num_workers * watts
        return dynamic

    def evaluate(self, trace: OccupancyTrace, clock_hz: float) -> PowerTrace:
        """Full power trace including the thermal-leakage feedback loop."""
        p = self.params
        window_s = trace.window_cycles / clock_hz
        dynamic = self.dynamic_power(trace)
        n = dynamic.size
        temperature = np.empty(n)
        leakage = np.empty(n)
        total = np.empty(n)
        t_now = p.reference_temperature_c
        alpha = window_s / p.thermal_time_constant_s
        for w in range(n):
            leak = max(0.0, p.leakage_w_per_c * (t_now - p.reference_temperature_c))
            power = p.base_power_w + dynamic[w] + leak
            # First-order RC toward the equilibrium temperature for this power.
            t_target = p.ambient_c + p.thermal_resistance_c_per_w * power
            t_now = t_now + alpha * (t_target - t_now)
            temperature[w] = t_now
            leakage[w] = leak
            total[w] = power
        return PowerTrace(
            window_s=window_s,
            base_power_w=p.base_power_w,
            total_w=total,
            dynamic_w=dynamic,
            leakage_w=leakage,
            temperature_c=temperature,
        )
