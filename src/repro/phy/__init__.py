"""LTE uplink PHY substrate: every signal-processing kernel the benchmark's
receiver chain (Fig. 3 of the paper) needs, plus the UE-side transmitter
and channel model used to synthesize realistic input data.
"""

from .params import (
    ALL_MODULATIONS,
    MAX_LAYERS,
    MAX_PRB,
    MAX_USERS_PER_SUBFRAME,
    MIN_PRB_PER_USER,
    NUM_RX_ANTENNAS,
    CellConfig,
    Modulation,
)
from .batched import (
    batched_chest,
    batched_combine_symbols,
    batched_combiner_weights,
    batched_soft_demap,
)
from .chain import UserResult, process_user
from .channel import ChannelModel, ChannelRealization
from .dtypes import COMPLEX_DTYPE, REAL_DTYPE, ensure_complex, ensure_real
from .transmitter import UserAllocation, payload_capacity, random_payload, transmit_subframe
from .turbo import PassThroughTurbo, TurboCodec

__all__ = [
    "ALL_MODULATIONS",
    "MAX_LAYERS",
    "MAX_PRB",
    "MAX_USERS_PER_SUBFRAME",
    "MIN_PRB_PER_USER",
    "NUM_RX_ANTENNAS",
    "CellConfig",
    "Modulation",
    "UserResult",
    "process_user",
    "batched_chest",
    "batched_combine_symbols",
    "batched_combiner_weights",
    "batched_soft_demap",
    "COMPLEX_DTYPE",
    "REAL_DTYPE",
    "ensure_complex",
    "ensure_real",
    "ChannelModel",
    "ChannelRealization",
    "UserAllocation",
    "payload_capacity",
    "random_payload",
    "transmit_subframe",
    "PassThroughTurbo",
    "TurboCodec",
]
