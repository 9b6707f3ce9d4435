"""Subframe input data: antenna sample grids plus scheduled users.

Section IV-B1: "At benchmark initialization, input data sets are created
for multiple subframes and then reused across all dispatched subframes...
The number of unique input data subframes to generate is configurable
(with ten as the default)." This reproduction runs the default,
:data:`POOL_SIZE`.

Two ways to obtain input data are provided, matching the two ways the
benchmark is used:

* :meth:`SubframeFactory.from_pool` — the paper's approach: a fixed pool of
  pre-generated pseudo-random antenna grids, reused round-robin across
  dispatched subframes. Fast, and sufficient because the benchmark's
  *compute* is data-independent. The pool of a ``(seed, antennas,
  subcarriers)`` key is built once per process by
  :func:`_input_pool` and shared, read-only, by every factory with that key,
  as the paper builds it once "at benchmark initialization".
* :meth:`SubframeFactory.synthesize` — full TX → channel → RX synthesis per
  user, so decoded CRCs actually pass. Used by examples and correctness
  tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..phy.channel import ChannelModel
from ..phy.params import (
    SLOTS_PER_SUBFRAME,
    SUBCARRIERS_PER_PRB,
    SYMBOLS_PER_SLOT,
    CellConfig,
)
from ..phy.transmitter import random_payload, transmit_subframe
from .user import UserParameters

__all__ = ["UserSlice", "SubframeInput", "SubframeFactory", "POOL_SIZE"]

#: Paper default: ten unique pre-generated input-data subframes.
POOL_SIZE = 10

#: How many pools :func:`_input_pool` keeps (~10.75 MB each at the default
#: cell); the least recently used is dropped beyond it.
_POOL_CACHE_SIZE = 4

_NUM_SYMBOLS = SLOTS_PER_SUBFRAME * SYMBOLS_PER_SLOT


@dataclass(frozen=True)
class UserSlice:
    """Where one user's allocation sits in the full-band grid."""

    user: UserParameters
    subcarrier_offset: int

    @property
    def num_subcarriers(self) -> int:
        return self.user.num_subcarriers

    def view(self, grid: np.ndarray) -> np.ndarray:
        """The user's (antennas, 14, width) slice of the full-band grid."""
        lo = self.subcarrier_offset
        return grid[:, :, lo : lo + self.num_subcarriers]


@dataclass
class SubframeInput:
    """One dispatched subframe: antenna samples plus the scheduled users."""

    subframe_index: int
    grid: np.ndarray  # (antennas, 14 symbols, total subcarriers)
    slices: list[UserSlice]
    expected_payloads: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def users(self) -> list[UserParameters]:
        return [s.user for s in self.slices]

    @property
    def total_prb(self) -> int:
        return sum(u.num_prb for u in self.users)


def assign_offsets(users: list[UserParameters], cell: CellConfig) -> list[UserSlice]:
    """Pack users' allocations contiguously across the carrier (first-fit).

    Raises when the users exceed the cell's frequency capacity — the
    scheduler (parameter model) guarantees they never do.
    """
    slices: list[UserSlice] = []
    offset = 0
    capacity = cell.max_prb_per_slot * SUBCARRIERS_PER_PRB
    for user in users:
        width = user.num_subcarriers
        if offset + width > capacity:
            raise ValueError(
                f"users exceed carrier capacity ({offset + width} > {capacity} subcarriers)"
            )
        slices.append(UserSlice(user=user, subcarrier_offset=offset))
        offset += width
    return slices


@lru_cache(maxsize=_POOL_CACHE_SIZE)
def _input_pool(seed: int, antennas: int, subcarriers: int) -> tuple[np.ndarray, ...]:
    """The §IV-B1 pool: :data:`POOL_SIZE` read-only (antennas, 14, subcarriers) grids.

    Built once per process for each key and shared by every
    :class:`SubframeFactory` with that key. The grids are marked
    read-only: a consumer that needs to change samples works on a copy
    (:func:`repro.faults.injector.corrupt_subframes` does).
    """
    rng = np.random.default_rng((seed, 0))
    shape = (antennas, _NUM_SYMBOLS, subcarriers)
    pool = tuple(
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        for _ in range(POOL_SIZE)
    )
    for grid in pool:
        grid.flags.writeable = False
    return pool


class SubframeFactory:
    """Builds :class:`SubframeInput` objects for the benchmark.

    :meth:`from_pool` indexes the process-wide :func:`_input_pool` of the
    factory's seed and cell: the first factory with that key
    builds the ten grids, every later one (each ``serve()`` run after the
    first, say) reuses them. Its grids are read-only.

    Parameters
    ----------
    cell:
        Receiver configuration (antenna count, carrier width).
    seed:
        Seed for pool generation and synthesis.
    channel:
        Channel model used by :meth:`synthesize`.
    """

    def __init__(
        self,
        cell: CellConfig | None = None,
        seed: int = 0,
        channel: ChannelModel | None = None,
    ) -> None:
        self.cell = cell or CellConfig()
        self.seed = seed
        # Defaults model a well-served cell (35 dB, mild delay spread) so
        # synthesized subframes decode cleanly even at 4 layers.
        self.channel = channel or ChannelModel(
            num_rx_antennas=self.cell.num_rx_antennas, num_taps=3, snr_db=35.0
        )

    @property
    def total_subcarriers(self) -> int:
        return self.cell.max_prb_per_slot * SUBCARRIERS_PER_PRB

    def from_pool(
        self, users: list[UserParameters], subframe_index: int
    ) -> SubframeInput:
        """Paper mode: reuse one of the pre-generated grids round-robin."""
        pool = _input_pool(self.seed, self.cell.num_rx_antennas, self.total_subcarriers)
        return SubframeInput(
            subframe_index=subframe_index,
            grid=pool[subframe_index % POOL_SIZE],
            slices=assign_offsets(users, self.cell),
        )

    def synthesize(
        self, users: list[UserParameters], subframe_index: int
    ) -> SubframeInput:
        """Full TX → channel → RX synthesis; records expected payloads."""
        rng = np.random.default_rng((self.seed, 1, subframe_index))
        slices = assign_offsets(users, self.cell)
        grid = np.zeros(
            (self.cell.num_rx_antennas, _NUM_SYMBOLS, self.total_subcarriers),
            dtype=np.complex128,
        )
        expected: dict[int, np.ndarray] = {}
        for user_slice in slices:
            user = user_slice.user
            allocation = user.allocation
            payload = random_payload(allocation, rng)
            tx = transmit_subframe(allocation, payload, rng)
            realization = self.channel.realize(
                user.layers, allocation.num_subcarriers, rng
            )
            rx = realization.apply(tx.grid, rng)
            lo = user_slice.subcarrier_offset
            grid[:, :, lo : lo + allocation.num_subcarriers] += rx
            expected[user.user_id] = payload
        return SubframeInput(
            subframe_index=subframe_index,
            grid=grid,
            slices=slices,
            expected_payloads=expected,
        )
