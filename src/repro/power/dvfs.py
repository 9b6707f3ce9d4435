"""DVFS extension (Section VII: "we could also use [the workload
estimation] in combination with DVFS to create further power management
opportunities").

The paper does not evaluate DVFS; this module implements the natural
design it hints at, in the same analytical style as the power-gating
model: per subframe, the estimated activity picks the lowest
frequency/voltage operating point that still leaves deadline headroom,
and the chip's *dynamic* power scales by ``(f/f_nom) · (V/V_nom)²``.

Like Eq. 7, the chosen point is held for the maximum demand over the
5-subframe visibility window (two ahead known, three in flight), and each
operating-point switch costs a fixed overhead for one subframe.

The model runs one configuration: the four-step :data:`LADDER`,
90 % headroom and a 0.2 W switch overhead (the module constants).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gating import visible_max, window_means

__all__ = ["OperatingPoint", "DvfsTrace", "DvfsModel"]


@dataclass(frozen=True)
class OperatingPoint:
    """One frequency/voltage step.

    ``frequency`` and ``voltage`` are relative to nominal (1.0, 1.0).
    """

    frequency: float
    voltage: float

    def __post_init__(self) -> None:
        if not 0.0 < self.frequency <= 1.0:
            raise ValueError("frequency must be in (0, 1]")
        if not 0.0 < self.voltage <= 1.0:
            raise ValueError("voltage must be in (0, 1]")

    @property
    def dynamic_power_factor(self) -> float:
        """P_dyn ∝ f · V²."""
        return self.frequency * self.voltage**2


#: A realistic four-step ladder: voltage falls more slowly than frequency.
LADDER = (
    OperatingPoint(frequency=0.25, voltage=0.70),
    OperatingPoint(frequency=0.50, voltage=0.80),
    OperatingPoint(frequency=0.75, voltage=0.90),
    OperatingPoint(frequency=1.00, voltage=1.00),
)


#: Utilization ceiling: pick the slowest point with activity/f below it.
HEADROOM = 0.9
#: Extra power for one subframe on every operating-point switch (W).
SWITCH_OVERHEAD_W = 0.2


@dataclass
class DvfsTrace:
    """Per-subframe DVFS decisions."""

    frequency: np.ndarray
    power_factor: np.ndarray
    switch_overhead_w: np.ndarray


class DvfsModel:
    """Chooses operating points from estimated activity and scales power."""

    def select_point(self, estimated_activity: float) -> OperatingPoint:
        """Slowest ladder point that keeps utilization under the headroom."""
        if estimated_activity < 0:
            raise ValueError("estimated_activity must be >= 0")
        for point in LADDER:
            if estimated_activity <= HEADROOM * point.frequency:
                return point
        return LADDER[-1]

    def evaluate(self, estimated_activity: np.ndarray) -> DvfsTrace:
        """Per-subframe decisions with the 5-subframe visibility window."""
        # Hold the maximum demand over Eq. 7's window.
        demanded = visible_max(np.asarray(estimated_activity, dtype=np.float64))
        points = [self.select_point(a) for a in demanded]
        freq = np.array([pt.frequency for pt in points])
        factor = np.array([pt.dynamic_power_factor for pt in points])
        switches = (np.diff(freq, prepend=freq[:1]) != 0).astype(float)
        return DvfsTrace(
            frequency=freq,
            power_factor=factor,
            switch_overhead_w=switches * SWITCH_OVERHEAD_W,
        )

    def apply_to_power(
        self,
        dynamic_power_w: np.ndarray,
        window_s: float,
        estimated_activity: np.ndarray,
        subframe_period_s: float,
    ) -> np.ndarray:
        """Scale a per-window *dynamic* power trace by the DVFS factors.

        Returns the adjusted dynamic power (base power is unaffected by
        DVFS of the cores and must be added back by the caller).
        """
        trace = self.evaluate(estimated_activity)
        adjusted = np.array(dynamic_power_w, dtype=np.float64)
        n = adjusted.size
        factor = window_means(trace.power_factor, n, window_s, subframe_period_s)
        overhead = window_means(
            trace.switch_overhead_w, n, window_s, subframe_period_s
        )
        adjusted[: factor.size] = adjusted[: factor.size] * factor + overhead
        return adjusted
