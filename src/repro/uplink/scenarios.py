"""Usage scenarios built on the randomized parameter model.

The paper motivates power management with the diurnal load cycle
(Section I: "periods of peak loads (rush hours) and periods of low loads
(late nights)") and notes that "a typical workload for base stations is
25 %" with "long periods where the load is much lower (e.g., nights)"
(Sections VI-B, VIII). :class:`DiurnalParameterModel` makes the diurnal
cycle runnable: a compressed 24-hour cell whose hour-by-hour load envelope
modulates the number of schedulable PRBs and users, with rush-hour peaks
and a night trough. (The 25 % case is the randomized model at half the
PRB budget, ``RandomizedParameterModel(max_prb=100)``.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..phy.params import MAX_PRB, MAX_USERS_PER_SUBFRAME, MIN_PRB_PER_USER
from .parameter_model import draw_users
from .user import UserParameters

__all__ = ["DiurnalParameterModel", "DEFAULT_DIURNAL_PROFILE"]


#: Relative load per hour of day, 0..23: a night trough, a morning ramp,
#: a lunchtime plateau, and an evening rush-hour peak.
DEFAULT_DIURNAL_PROFILE = (
    0.10, 0.07, 0.05, 0.05, 0.06, 0.10,  # 00-05: night
    0.20, 0.40, 0.65, 0.70, 0.65, 0.70,  # 06-11: morning ramp
    0.75, 0.70, 0.60, 0.60, 0.70, 0.85,  # 12-17: day / commute build-up
    1.00, 0.95, 0.80, 0.60, 0.35, 0.18,  # 18-23: evening peak and wind-down
)


@dataclass
class DiurnalParameterModel:
    """A compressed 24-hour cell load.

    The full day is mapped onto ``total_subframes``; within each "hour"
    the Fig. 6 draw (:func:`~repro.uplink.parameter_model.draw_users`)
    runs with its PRB budget and user cap scaled by the profile. The
    layers/modulation probability follows the load as well (busy hours
    carry more MIMO/high-order traffic).
    """

    total_subframes: int = 24_000
    seed: int = 0
    profile: tuple = DEFAULT_DIURNAL_PROFILE

    def __post_init__(self) -> None:
        if self.total_subframes < len(self.profile):
            raise ValueError("total_subframes must cover the profile")
        if not self.profile or min(self.profile) <= 0 or max(self.profile) > 1:
            raise ValueError("profile values must be in (0, 1]")
        self._subframes_per_hour = self.total_subframes // len(self.profile)

    def hour_of(self, subframe_index: int) -> int:
        if subframe_index < 0:
            raise ValueError("subframe_index must be >= 0")
        return (subframe_index // self._subframes_per_hour) % len(self.profile)

    def load_at(self, subframe_index: int) -> float:
        return self.profile[self.hour_of(subframe_index)]

    def uplink_parameters(self, subframe_index: int) -> list[UserParameters]:
        load = self.load_at(subframe_index)
        budget = max(MIN_PRB_PER_USER, int(round(load * MAX_PRB)))
        budget -= budget % 2
        users_cap = max(1, int(round(load * MAX_USERS_PER_SUBFRAME)))
        rng = np.random.default_rng((self.seed, subframe_index))
        # Busy hours carry heavier per-user traffic (layers/modulation).
        prob = max(0.006, min(1.0, load))
        return draw_users(rng, users_cap, budget, prob)
