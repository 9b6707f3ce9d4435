"""LTE uplink numerology and benchmark-wide constants.

The values here follow the LTE physical-layer organization described in
Section II of the paper (and 3GPP TS 36.211): a 10 ms frame of ten 1 ms
subframes, each subframe holding two slots of seven SC-FDMA symbols with
the reference symbol in the middle (3 data + 1 reference + 3 data), and a
physical resource block (PRB) of twelve 15 kHz subcarriers lasting one
slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Subcarriers in one physical resource block.
SUBCARRIERS_PER_PRB = 12

#: Subcarrier spacing in Hz (15 kHz).
SUBCARRIER_SPACING_HZ = 15_000

#: SC-FDMA symbols per slot (normal cyclic prefix).
SYMBOLS_PER_SLOT = 7

#: Slots per subframe.
SLOTS_PER_SUBFRAME = 2

#: Subframes per radio frame.
SUBFRAMES_PER_FRAME = 10

#: Duration of one subframe in seconds (1 ms).
SUBFRAME_DURATION_S = 1e-3

#: Duration of one slot in seconds (0.5 ms).
SLOT_DURATION_S = SUBFRAME_DURATION_S / SLOTS_PER_SUBFRAME

#: Index of the reference (DMRS) symbol within a slot: symbols are arranged
#: as three data symbols, one reference symbol, three data symbols.
REFERENCE_SYMBOL_INDEX = 3

#: Data symbols per slot (all symbols except the reference symbol).
DATA_SYMBOLS_PER_SLOT = SYMBOLS_PER_SLOT - 1

#: Data symbols per subframe across both slots.
DATA_SYMBOLS_PER_SUBFRAME = DATA_SYMBOLS_PER_SLOT * SLOTS_PER_SUBFRAME

#: Maximum PRBs schedulable in one subframe for the benchmark's 20 MHz-like
#: configuration (the paper's parameter model uses MAX_PRB = 200 across two
#: slots, i.e. 100 PRBs per slot in a 20 MHz carrier).
MAX_PRB = 200

#: Maximum PRBs per slot (a PRB lasts one slot, so a "200 PRB" allocation is
#: 100 PRBs wide repeated over the subframe's two slots).
MAX_PRB_PER_SLOT = MAX_PRB // SLOTS_PER_SUBFRAME

#: Minimum PRBs a scheduled user may hold (Section V-A: "a user has to have
#: at least two PRBs to be scheduled for a subframe").
MIN_PRB_PER_USER = 2

#: Maximum users schedulable in one subframe (Section II-A / Fig. 6).
MAX_USERS_PER_SUBFRAME = 10

#: Receive antennas at the base station (four-antenna receiver, Section III).
NUM_RX_ANTENNAS = 4

#: Maximum spatial-multiplexing layers in the uplink (LTE-Advanced, [12]).
MAX_LAYERS = 4

#: Size of the front-end FFT grid: the subcarriers available per symbol.
FFT_SIZE = 2048


class Modulation(enum.Enum):
    """Uplink modulation schemes supported by the benchmark."""

    QPSK = "QPSK"
    QAM16 = "16QAM"
    QAM64 = "64QAM"

    @property
    def bits_per_symbol(self) -> int:
        """Number of coded bits carried by one modulated symbol."""
        return _BITS_PER_SYMBOL[self]



_BITS_PER_SYMBOL = {
    Modulation.QPSK: 2,
    Modulation.QAM16: 4,
    Modulation.QAM64: 6,
}

#: All modulations in increasing spectral-efficiency order.
ALL_MODULATIONS = (Modulation.QPSK, Modulation.QAM16, Modulation.QAM64)


@dataclass(frozen=True)
class CellConfig:
    """Static configuration of the simulated cell / base-station receiver.

    Parameters
    ----------
    num_rx_antennas:
        Number of receive antennas at the base station.
    max_prb:
        Total PRBs schedulable per subframe (two slots).
    max_users:
        Maximum simultaneously scheduled users per subframe.

    One slot's ``max_prb_per_slot * SUBCARRIERS_PER_PRB`` subcarriers must
    fit the :data:`FFT_SIZE` grid.
    """

    num_rx_antennas: int = NUM_RX_ANTENNAS
    max_prb: int = MAX_PRB
    max_users: int = MAX_USERS_PER_SUBFRAME

    def __post_init__(self) -> None:
        if self.num_rx_antennas < 1:
            raise ValueError("num_rx_antennas must be >= 1")
        if self.max_prb < MIN_PRB_PER_USER:
            raise ValueError("max_prb too small")
        if self.max_prb % SLOTS_PER_SUBFRAME:
            raise ValueError("max_prb must cover both slots evenly")
        if self.max_users < 1:
            raise ValueError("max_users must be >= 1")
        needed = (self.max_prb // SLOTS_PER_SUBFRAME) * SUBCARRIERS_PER_PRB
        if FFT_SIZE < needed:
            raise ValueError(
                f"the {FFT_SIZE}-point FFT cannot hold {needed} subcarriers"
            )

    @property
    def max_prb_per_slot(self) -> int:
        """PRBs available across frequency within one slot."""
        return self.max_prb // SLOTS_PER_SUBFRAME


def validate_allocation(num_prb: int, layers: int, modulation: Modulation) -> None:
    """Validate a user allocation against LTE and benchmark limits.

    Raises
    ------
    ValueError
        If the PRB count, layer count, or modulation is out of range.
    """
    if not MIN_PRB_PER_USER <= num_prb <= MAX_PRB:
        raise ValueError(
            f"PRB count {num_prb} outside [{MIN_PRB_PER_USER}, {MAX_PRB}]"
        )
    if num_prb % 2:
        raise ValueError(
            f"PRB count {num_prb} must be even (a PRB lasts one slot; "
            "allocations span both slots of the subframe)"
        )
    if not 1 <= layers <= MAX_LAYERS:
        raise ValueError(f"layer count {layers} outside [1, {MAX_LAYERS}]")
    if not isinstance(modulation, Modulation):
        raise TypeError(f"modulation must be a Modulation, got {modulation!r}")
