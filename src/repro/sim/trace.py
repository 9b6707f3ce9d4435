"""Per-window state-occupancy traces.

The paper's DAQ samples power and computes a 100 ms RMS; its activity plots
average over 1 s. The simulator mirrors this by binning every core-state
segment into fixed windows. Each window records, per core state, how many
core-cycles were spent in that state; the power model turns occupancies
into watts and the experiments turn COMPUTE occupancy into activity
(Eqs. 1-2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CoreState", "OccupancyTrace"]


class CoreState(enum.Enum):
    """What a worker core is doing at a point in simulated time."""

    COMPUTE = "compute"  # executing a task or a join continuation
    SPIN = "spin"  # busy-waiting, polling queues for work
    NAP = "nap"  # reactive clock-gated idle (periodic wake checks)
    DISABLED = "disabled"  # proactively napped by the NAP governor


#: Row of ``OccupancyTrace._bins`` per state, in declaration order.
_ROW = {state: row for row, state in enumerate(CoreState)}


@dataclass
class OccupancyTrace:
    """Accumulates core-state segments into fixed windows.

    Parameters
    ----------
    window_cycles:
        Window length in clock cycles (100 ms at the machine clock).
    num_windows:
        Total windows covering the simulated horizon.
    num_workers:
        Worker count; used to convert occupancy into activity.
    """

    window_cycles: int
    num_windows: int
    num_workers: int
    _bins: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.window_cycles < 1 or self.num_windows < 1 or self.num_workers < 1:
            raise ValueError("window_cycles, num_windows, num_workers must be >= 1")
        self._bins = np.zeros((len(CoreState), self.num_windows), dtype=np.float64)

    def add_segment(self, state: CoreState, start: int, end: int) -> None:
        """Record that one core was in ``state`` during [start, end) cycles."""
        if end < start:
            raise ValueError("segment must not end before it starts")
        horizon = self.window_cycles * self.num_windows
        start = min(start, horizon)
        end = min(end, horizon)
        # Re-check emptiness *after* clamping: a segment lying entirely
        # at/past the horizon collapses to start == end == horizon, and
        # falling through would index window ``num_windows`` (one past the
        # last) in the single-window branch below.
        if end <= start:
            return
        row = _ROW[state]
        first = start // self.window_cycles
        last = (end - 1) // self.window_cycles
        if first == last:
            self._bins[row, first] += end - start
            return
        # Split across windows.
        self._bins[row, first] += (first + 1) * self.window_cycles - start
        if last > first + 1:
            self._bins[row, first + 1 : last] += self.window_cycles
        self._bins[row, last] += end - last * self.window_cycles

    # ------------------------------------------------------------- queries
    def occupancy_cycles(self, state: CoreState) -> np.ndarray:
        """Per-window core-cycles spent in ``state``."""
        return self._bins[_ROW[state]].copy()

    def occupancy_fraction(self, state: CoreState) -> np.ndarray:
        """Per-window occupancy as a fraction of all worker cycles."""
        return self.occupancy_cycles(state) / (self.window_cycles * self.num_workers)

    def activity(self) -> np.ndarray:
        """Eq. 2: compute cycles over total worker cycles, per window."""
        return self.occupancy_fraction(CoreState.COMPUTE)

    def total_cycles(self, state: CoreState) -> float:
        return float(self.occupancy_cycles(state).sum())

    def check_conservation(self, atol_cycles: float = 1.0) -> bool:
        """True when every window's occupancies sum to the worker budget.

        Only meaningful after a run that covered the whole horizon.
        """
        per_window = self._bins.sum(axis=0)
        budget = self.window_cycles * self.num_workers
        return bool(np.all(np.abs(per_window - budget) <= atol_cycles))
