"""The full per-user receiver chain of Fig. 3, decomposable into the tasks
of Fig. 5.

The chain is written as three explicitly separable stages so both the
serial reference and the work-stealing runtimes can drive it:

1. :func:`chest_task` — one (slot, antenna, layer) channel-estimation task
   (matched filter, IFFT, window, FFT). Up to ``antennas × layers`` tasks
   per slot.
2. :func:`combiner_stage` — the non-parallelizable combiner-weight
   computation joining all estimates of a slot (with MMSE bias correction).
3. :func:`symbol_task` — one (data symbol, layer) antenna-combining + IFFT
   (SC-FDMA despreading) task. Up to ``6 symbols × layers`` tasks per slot.
4. :func:`finalize_user` — the remaining serial tail: deinterleave, soft
   demap, turbo decode (pass-through by default), CRC check.

``process_user`` wires the stages together for serial execution. Every
stage reports to an optional :class:`KernelTrace` so tests and the cost
model can observe kernel invocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import interleaver as il
from .chest import ChestConfig, estimate_channel, estimate_noise_variance
from .crc import CRC24A, crc_check
from .equalizer import combine_antennas, mmse_combiner
from .modulation import soft_demap
from .params import (
    DATA_SYMBOLS_PER_SLOT,
    REFERENCE_SYMBOL_INDEX,
    SLOTS_PER_SUBFRAME,
    SYMBOLS_PER_SLOT,
)
from .transmitter import UserAllocation, data_symbol_indices
from .turbo import PassThroughTurbo

__all__ = [
    "KernelTrace",
    "SlotEstimate",
    "UserResult",
    "chest_task",
    "combiner_stage",
    "symbol_task",
    "finalize_user",
    "process_user",
]


@dataclass
class KernelTrace:
    """Records every kernel invocation (name, work descriptor).

    The timing simulator's cost model charges cycles for exactly these
    kernels; recording them from the functional chain keeps the two views
    of the benchmark aligned.
    """

    events: list[tuple[str, dict]] = field(default_factory=list)

    def record(self, kernel: str, **work) -> None:
        self.events.append((kernel, work))

    def count(self, kernel: str) -> int:
        return sum(1 for name, _ in self.events if name == kernel)


@dataclass
class SlotEstimate:
    """Join result of one slot's channel-estimation tasks."""

    channel: np.ndarray  # (antennas, layers, subcarriers)
    noise_variance: float
    weights: np.ndarray | None = None  # (layers, antennas, subcarriers)
    noise_after_combining: np.ndarray | None = None  # (layers, subcarriers)


@dataclass
class UserResult:
    """Decoded output for one user in one subframe.

    ``payload`` is ``uint8``, one 0/1 per decoded bit (CRC stripped). It
    may be a view into a buffer shared by the users of one call, so a
    caller that writes to it copies it first.
    """

    user_id: int
    payload: np.ndarray
    crc_ok: bool
    llrs: np.ndarray = field(repr=False, default=None)

    def equals(self, other: "UserResult") -> bool:
        """Bit-exact equivalence (used by serial-vs-parallel verification)."""
        return (
            self.user_id == other.user_id
            and self.crc_ok == other.crc_ok
            and np.array_equal(self.payload, other.payload)
        )


def chest_task(
    received_ref: np.ndarray,
    layer: int,
    config: ChestConfig | None = None,
    trace: KernelTrace | None = None,
) -> tuple[np.ndarray, float]:
    """One (antenna, layer) channel-estimation task for one slot.

    Returns the frequency-domain channel estimate and a noise-variance
    estimate from the windowed-out time-domain span.
    """
    n = np.asarray(received_ref).size
    if trace is not None:
        trace.record("matched_filter", subcarriers=n)
        trace.record("chest_ifft", subcarriers=n)
        trace.record("chest_window", subcarriers=n)
        trace.record("chest_fft", subcarriers=n)
    estimate = estimate_channel(received_ref, layer, config)
    noise = estimate_noise_variance(received_ref, layer, config)
    return estimate, noise


def combiner_stage(
    channel: np.ndarray,
    noise_variance: float,
    trace: KernelTrace | None = None,
) -> SlotEstimate:
    """Combiner-weight computation for one slot (not parallelized).

    Computes MMSE weights, removes the MMSE amplitude bias so the output
    constellation is unit-scaled, and derives the post-combining noise
    variance the soft demapper needs
    (:func:`repro.phy.equalizer.mmse_combiner`, unbatched). A singular
    subcarrier system gives NaN weights; it does not raise.
    """
    channel = np.asarray(channel, dtype=np.complex128)
    num_antennas, num_layers, num_sc = channel.shape
    if trace is not None:
        trace.record(
            "combiner_weights",
            subcarriers=num_sc,
            layers=num_layers,
            antennas=num_antennas,
        )
    weights, noise_after = mmse_combiner(channel, noise_variance)
    return SlotEstimate(
        channel=channel,
        noise_variance=noise_variance,
        weights=weights,
        noise_after_combining=noise_after,
    )


def symbol_task(
    received_symbol: np.ndarray,
    weights: np.ndarray,
    layer: int,
    trace: KernelTrace | None = None,
) -> np.ndarray:
    """One (data symbol, layer) task: antenna combining + SC-FDMA IFFT.

    Parameters
    ----------
    received_symbol:
        One SC-FDMA symbol across antennas, shape ``(antennas, subcarriers)``.
    weights:
        Slot combiner weights, shape ``(layers, antennas, subcarriers)``.
    layer:
        Which layer this task despreads.

    Returns
    -------
    numpy.ndarray
        The layer's time-domain modulated symbols for this SC-FDMA symbol
        (length ``subcarriers``).
    """
    received_symbol = np.asarray(received_symbol, dtype=np.complex128)
    num_sc = received_symbol.shape[1]
    if trace is not None:
        trace.record("antenna_combine", subcarriers=num_sc, layers=1)
        trace.record("data_ifft", subcarriers=num_sc)
    combined = combine_antennas(received_symbol[:, None, :], weights[layer : layer + 1])
    # Inverse transform precoding: undo the transmitter's DFT.
    return np.fft.ifft(combined[0, 0, :]) * np.sqrt(num_sc)


def finalize_user(
    allocation: UserAllocation,
    layer_symbols: np.ndarray,
    noise_per_layer_slot: np.ndarray,
    user_id: int = 0,
    codec=None,
    trace: KernelTrace | None = None,
    scrambling_c_init: int | None = None,
) -> UserResult:
    """Serial tail: deinterleave → soft demap → turbo decode → CRC.

    Parameters
    ----------
    allocation:
        The user's allocation.
    layer_symbols:
        Despread time-domain symbols, shape ``(layers, 12 data symbols,
        subcarriers)`` in data-symbol order.
    noise_per_layer_slot:
        Effective noise variance, shape ``(layers, 2 slots)``.
    """
    codec = codec or PassThroughTurbo()
    layers = allocation.layers
    num_sc = allocation.num_subcarriers
    layer_symbols = np.asarray(layer_symbols, dtype=np.complex128)
    if layer_symbols.shape != (layers, DATA_SYMBOLS_PER_SLOT * SLOTS_PER_SUBFRAME, num_sc):
        raise ValueError("layer_symbols shape mismatch")

    # Invert the transmitter's layer mapping back to one symbol stream.
    streams = layer_symbols.reshape(layers, -1)  # (layers, 12*num_sc)
    interleaved = streams.T.reshape(-1)
    # Per-symbol noise: follows the same reshaping as the data.
    noise_streams = _noise_stream(noise_per_layer_slot, num_sc)
    interleaved_noise = noise_streams.T.reshape(-1)

    if trace is not None:
        trace.record("deinterleave", symbols=interleaved.size)
    symbols = il.deinterleave(interleaved)
    noise = il.deinterleave(interleaved_noise)

    if trace is not None:
        trace.record(
            "soft_demap",
            symbols=symbols.size,
            bits_per_symbol=allocation.modulation.bits_per_symbol,
        )
    llrs = soft_demap(symbols, allocation.modulation, np.maximum(noise, 1e-12))
    if scrambling_c_init is not None:
        from .scrambling import descramble_llrs

        llrs = descramble_llrs(llrs, scrambling_c_init)

    if codec.rate_denominator == 1:
        num_info = llrs.size - CRC24A.width
        useful = llrs
    else:
        capacity = llrs.size
        num_info_with_crc = (capacity - 12) // 3
        num_info = num_info_with_crc - CRC24A.width
        useful = llrs[: 3 * num_info_with_crc + 12]
    if trace is not None:
        trace.record("turbo_decode", bits=useful.size)
    decoded = codec.decode(useful, num_info + CRC24A.width)
    if trace is not None:
        trace.record("crc_check", bits=decoded.size)
    # A NaN LLR hard-decides to bit 0 and the all-zero block passes CRC24A,
    # so a non-finite soft bit fails the user outright (one reduction: the
    # sum is non-finite exactly when some LLR is).
    ok = crc_check(decoded, CRC24A) and bool(np.isfinite(llrs.sum()))
    return UserResult(
        user_id=user_id,
        payload=decoded[: -CRC24A.width],
        crc_ok=ok,
        llrs=llrs,
    )


def _noise_stream(noise_per_layer_slot: np.ndarray, num_sc: int) -> np.ndarray:
    """Expand (layers, slots) noise to per-sample streams (layers, 12*num_sc)."""
    noise_per_layer_slot = np.asarray(noise_per_layer_slot, dtype=np.float64)
    layers, slots = noise_per_layer_slot.shape
    per_slot = DATA_SYMBOLS_PER_SLOT * num_sc
    out = np.empty((layers, slots * per_slot))
    for slot in range(slots):
        out[:, slot * per_slot : (slot + 1) * per_slot] = np.repeat(
            noise_per_layer_slot[:, slot : slot + 1], per_slot, axis=1
        )
    return out


def process_user(
    allocation: UserAllocation,
    received: np.ndarray,
    user_id: int = 0,
    config: ChestConfig | None = None,
    codec=None,
    trace: KernelTrace | None = None,
    scrambling_c_init: int | None = None,
) -> UserResult:
    """Run the whole Fig. 3 chain serially for one user.

    Parameters
    ----------
    received:
        Received grid, shape ``(antennas, 14 symbols, subcarriers)``.
    """
    received = np.asarray(received, dtype=np.complex128)
    num_antennas = received.shape[0]
    layers = allocation.layers
    num_sc = allocation.num_subcarriers
    if received.shape[1] != SLOTS_PER_SUBFRAME * SYMBOLS_PER_SLOT:
        raise ValueError("received grid must hold 14 SC-FDMA symbols")
    if received.shape[2] != num_sc:
        raise ValueError("received grid subcarrier width mismatch")

    slot_estimates: list[SlotEstimate] = []
    for slot in range(SLOTS_PER_SUBFRAME):
        ref_sym = slot * SYMBOLS_PER_SLOT + REFERENCE_SYMBOL_INDEX
        channel = np.empty((num_antennas, layers, num_sc), dtype=np.complex128)
        noise_samples = []
        for antenna in range(num_antennas):
            for layer in range(layers):
                estimate, noise = chest_task(
                    received[antenna, ref_sym, :], layer, config, trace
                )
                channel[antenna, layer, :] = estimate
                noise_samples.append(noise)
        slot_estimates.append(
            combiner_stage(channel, float(np.mean(noise_samples)), trace)
        )

    data_idx = data_symbol_indices()
    layer_symbols = np.empty(
        (layers, len(data_idx), num_sc), dtype=np.complex128
    )
    for row, sym in enumerate(data_idx):
        slot = sym // SYMBOLS_PER_SLOT
        weights = slot_estimates[slot].weights
        for layer in range(layers):
            layer_symbols[layer, row, :] = symbol_task(
                received[:, sym, :], weights, layer, trace
            )

    noise_per_layer_slot = np.stack(
        [est.noise_after_combining.mean(axis=1) for est in slot_estimates], axis=1
    )
    return finalize_user(
        allocation,
        layer_symbols,
        noise_per_layer_slot,
        user_id=user_id,
        codec=codec,
        trace=trace,
        scrambling_c_init=scrambling_c_init,
    )
