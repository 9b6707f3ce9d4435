"""Static power reduction through (analytical) power gating (Section VI-C).

The paper's platform cannot power-gate cores, so it — and therefore we —
model gating analytically on top of the NAP+IDLE run:

* cores are managed in groups of eight (eight power domains on a 64-core
  chip), Eq. 6: ``active = ceil(active_cores / 8) × 8``;
* the schedule is known two subframes ahead and up to three subframes are
  in flight, so the powered count is the maximum of Eq. 6 over a window of
  five consecutive subframes, Eq. 7;
* 25 % of the 14 W base power (3.5 W) is attributed to the 64 idle cores
  → 55 mW static power per core; toggling a core on or off costs 15 mW
  for one subframe, Eq. 8;
* the saving per subframe is Eq. 9:
  ``(64 − powered) × 0.055 − OH``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PowerGatingModel", "GatingTrace", "visible_max", "window_means"]

#: Cores on the chip, all of them gateable (the 62 workers plus two).
TOTAL_CORES = 64
#: Static power per core: 25 % of the 14 W base over 64 cores (W).
STATIC_POWER_PER_CORE_W = 0.055
#: Eq. 8: toggling one core on or off, charged for one subframe (W).
TOGGLE_OVERHEAD_PER_CORE_W = 0.015
#: Eq. 7's reach: two subframes ahead are known, two behind in flight.
VISIBILITY_SUBFRAMES = 2


def visible_max(series: np.ndarray) -> np.ndarray:
    """Eq. 7's window: each subframe's maximum over ``[i-2, i+2]``."""
    series = np.asarray(series)
    out = series.copy()
    for shift in range(1, VISIBILITY_SUBFRAMES + 1):
        np.maximum(out[shift:], series[:-shift], out=out[shift:])
        np.maximum(out[:-shift], series[shift:], out=out[:-shift])
    return out


def window_means(
    series: np.ndarray,
    num_windows: int,
    window_s: float,
    subframe_period_s: float,
) -> np.ndarray:
    """Mean of a per-subframe series inside each power window.

    Window ``w`` holds subframes ``[w·k, (w+1)·k)``, ``k = round(window_s
    / subframe_period_s)``; the last one may be partial. Returns one mean
    per window that holds a subframe, at most ``num_windows`` of them.
    """
    if window_s <= 0 or subframe_period_s <= 0:
        raise ValueError("window_s and subframe_period_s must be positive")
    per_window = int(round(window_s / subframe_period_s))
    if per_window < 1:
        raise ValueError("window must cover at least one subframe")
    series = np.asarray(series, dtype=np.float64)
    starts = range(0, min(series.size, num_windows * per_window), per_window)
    return np.array([series[lo : lo + per_window].mean() for lo in starts])


@dataclass
class GatingTrace:
    """Per-subframe gating decisions and savings."""

    active: np.ndarray  # Eq. 6, group-quantized active cores
    powered: np.ndarray  # Eq. 7, max over the 5-subframe window
    overhead_w: np.ndarray  # Eq. 8
    saving_w: np.ndarray  # Eq. 9

    def mean_saving(self) -> float:
        return float(self.saving_w.mean())


class PowerGatingModel:
    """Applies Eqs. 6-9 to a trace of estimated active core counts.

    ``group_size`` is the cores per power domain: eight in the paper,
    swept by the group-size ablation.
    """

    def __init__(self, group_size: int = 8) -> None:
        if group_size < 1 or TOTAL_CORES % group_size:
            raise ValueError(f"group_size must divide the {TOTAL_CORES} cores")
        self.group_size = group_size

    def quantize(self, active_cores: np.ndarray) -> np.ndarray:
        """Eq. 6: round up to whole power-gating groups."""
        active = np.ceil(np.asarray(active_cores, dtype=np.float64) / self.group_size)
        return np.clip(active * self.group_size, 0, TOTAL_CORES).astype(np.int64)

    def powered_window(self, active: np.ndarray) -> np.ndarray:
        """Eq. 7: max over [i-2, i+2] (two ahead known, three in flight)."""
        return visible_max(np.asarray(active, dtype=np.int64))

    def evaluate(self, active_cores: np.ndarray) -> GatingTrace:
        """Full Eqs. 6-9 pipeline over a per-subframe active-cores trace."""
        active = self.quantize(active_cores)
        powered = self.powered_window(active)
        toggles = np.abs(np.diff(powered, prepend=powered[:1]))
        overhead = toggles * TOGGLE_OVERHEAD_PER_CORE_W
        saving = (TOTAL_CORES - powered) * STATIC_POWER_PER_CORE_W - overhead
        return GatingTrace(
            active=active,
            powered=powered,
            overhead_w=overhead,
            saving_w=saving,
        )

    def apply_to_power(
        self,
        power_w: np.ndarray,
        window_s: float,
        active_cores: np.ndarray,
        subframe_period_s: float,
    ) -> np.ndarray:
        """Subtract per-subframe savings from a per-window power trace.

        Savings are averaged over the subframes falling inside each power
        window (the paper's Fig. 16 subtracts Eq. 9 from the NAP+IDLE
        measurement)."""
        gated = np.array(power_w, dtype=np.float64)
        saving = self.evaluate(active_cores).saving_w
        means = window_means(saving, gated.size, window_s, subframe_period_s)
        gated[: means.size] -= means
        return gated
