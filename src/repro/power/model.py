"""Chip power model (substitute for the paper's DAQ measurements).

The paper samples the supply current at 8 µs and reports its RMS over
100 ms windows. Here each 100 ms window's power is priced from the mean
state occupancy of its cores (:data:`STATE_POWER_W`), so a window reports
a mean, not an RMS, of power. Total power is decomposed the way the
paper's measurements imply:

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

The model runs one configuration, the paper's platform: the module
constants below. Its per-core powers are calibrated against Tables I and
II: at 100 % activity dynamic power is ~11.7 W (62 cores × 188 mW) plus
thermal leakage; busy-spinning costs ~84 % of computing; a reactively
napping core averages ~24 mW (wake-check duty); a disabled core ~8 mW.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.trace import CoreState, OccupancyTrace

__all__ = [
    "PowerModel",
    "PowerTrace",
    "power_from_busy_fraction",
]


#: Chip power with every core napped (W).
BASE_POWER_W = 14.0
#: Per-core power by state (W): computing at 100 % duty, busy-spinning,
#: reactively napping, disabled. Every watt the model reports is priced
#: from this one table.
STATE_POWER_W = {
    CoreState.COMPUTE: 0.188,
    CoreState.SPIN: 0.158,
    CoreState.NAP: 0.024,
    CoreState.DISABLED: 0.008,
}
#: Thermal feedback: die-to-ambient resistance, RC time constant,
#: leakage slope and ambient temperature.
THERMAL_RESISTANCE_C_PER_W = 1.5
THERMAL_TIME_CONSTANT_S = 60.0
LEAKAGE_W_PER_C = 0.09
AMBIENT_C = 45.0
#: Steady-state die temperature when dissipating only base power. Leakage
#: is defined as zero at this point (it is already inside the measured
#: 14 W base).
REFERENCE_TEMPERATURE_C = AMBIENT_C + THERMAL_RESISTANCE_C_PER_W * BASE_POWER_W


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


def power_from_busy_fraction(busy_fraction, num_workers: int):
    """Windowed power estimate from a busy fraction (no occupancy trace).

    The streaming telemetry layer only sees task durations, not per-core
    state occupancies. Its estimate is the two-state case of
    :data:`STATE_POWER_W`: each of ``num_workers`` cores computes for the
    window's busy fraction and naps reactively for the rest. That is the
    IDLE policy's steady state: serve's pool has no governor, so its idle
    workers nap reactively. It is the live analog of the 100 ms windows,
    without the thermal feedback loop. Accepts a scalar or array of busy
    fractions (clipped to [0, 1]) and returns watts with matching shape.
    """
    busy = np.clip(np.asarray(busy_fraction, dtype=np.float64), 0.0, 1.0)
    dynamic = num_workers * (
        busy * STATE_POWER_W[CoreState.COMPUTE]
        + (1.0 - busy) * STATE_POWER_W[CoreState.NAP]
    )
    result = BASE_POWER_W + dynamic
    return float(result) if result.ndim == 0 else result


class PowerModel:
    """Turns a state-occupancy trace into a power trace."""

    def dynamic_power(self, trace: OccupancyTrace) -> np.ndarray:
        """Per-window dynamic power from state occupancies (no thermal)."""
        dynamic = np.zeros(trace.num_windows)
        for state, watts in STATE_POWER_W.items():
            dynamic += trace.occupancy_fraction(state) * trace.num_workers * watts
        return dynamic

    def evaluate(self, trace: OccupancyTrace, clock_hz: float) -> PowerTrace:
        """Full power trace including the thermal-leakage feedback loop."""
        window_s = trace.window_cycles / clock_hz
        dynamic = self.dynamic_power(trace)
        n = dynamic.size
        temperature = np.empty(n)
        leakage = np.empty(n)
        total = np.empty(n)
        t_now = REFERENCE_TEMPERATURE_C
        alpha = window_s / THERMAL_TIME_CONSTANT_S
        for w in range(n):
            leak = max(0.0, LEAKAGE_W_PER_C * (t_now - REFERENCE_TEMPERATURE_C))
            power = BASE_POWER_W + dynamic[w] + leak
            # First-order RC toward the equilibrium temperature for this power.
            t_target = AMBIENT_C + THERMAL_RESISTANCE_C_PER_W * power
            t_now = t_now + alpha * (t_target - t_now)
            temperature[w] = t_now
            leakage[w] = leak
            total[w] = power
        return PowerTrace(
            window_s=window_s,
            base_power_w=BASE_POWER_W,
            total_w=total,
            dynamic_w=dynamic,
            leakage_w=leakage,
            temperature_c=temperature,
        )
