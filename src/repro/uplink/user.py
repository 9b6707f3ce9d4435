"""Per-user subframe input parameters (Section IV: "The following input
parameters define the workload for a subframe: number of users; number of
PRBs allocated to each user; number of layers used for each user; and
modulation technique used for each user.").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..phy.params import (
    SLOTS_PER_SUBFRAME,
    SUBCARRIERS_PER_PRB,
    Modulation,
    validate_allocation,
)
from ..phy.transmitter import UserAllocation

__all__ = ["UserParameters"]


@dataclass(frozen=True)
class UserParameters:
    """One scheduled user's parameters for one subframe."""

    user_id: int
    num_prb: int
    layers: int
    modulation: Modulation

    def __post_init__(self) -> None:
        if self.user_id < 0:
            raise ValueError("user_id must be >= 0")
        validate_allocation(self.num_prb, self.layers, self.modulation)

    @property
    def num_subcarriers(self) -> int:
        """Frequency width of the allocation in subcarriers."""
        return self.num_prb // SLOTS_PER_SUBFRAME * SUBCARRIERS_PER_PRB

    @cached_property
    def allocation(self) -> UserAllocation:
        """The PHY-level allocation for this user, built (and validated)
        once: a cached property writes the instance ``__dict__`` directly,
        which a frozen dataclass allows, and is no field, so equality and
        hashing do not see it."""
        return UserAllocation(
            num_prb=self.num_prb, layers=self.layers, modulation=self.modulation
        )

    def __getstate__(self) -> dict:
        # Pickles (the multiprocess wire) carry the fields, not the cache.
        state = dict(self.__dict__)
        state.pop("allocation", None)
        return state
