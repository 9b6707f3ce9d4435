"""Channel estimation: matched filter → IFFT → window → FFT (Fig. 3).

Estimation runs once per slot, per (receive antenna, layer) pair — the
per-task unit the benchmark parallelizes (Section III: up to 4 antennas ×
4 layers = 16 tasks per slot).

Layers share the reference symbol through cyclically shifted DMRS
sequences, so the matched filter (multiply by the conjugate of the desired
layer's sequence) moves the desired layer's channel response to the leading
time-domain span and the other layers' responses to offsets of N/4, N/2,
3N/4; the time-domain window then isolates the desired layer.

Each task is one pass: one matched filter against the cached conjugated
DMRS table of its width (:func:`dmrs_bank`), one IFFT, the noise read off
the guard span before the window, the window, one FFT. :func:`chest_task` runs it for one task; the batched backend runs the
same :func:`estimate_in_place` over all tasks of a user group at once
(:func:`repro.phy.batched.batched_chest`), so both produce the same bits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fftutil import wraparound_window
from .params import MAX_LAYERS
from .sequences import dmrs_for_layer

__all__ = [
    "KEEP_FRACTION",
    "BACK_FRACTION",
    "window_lengths",
    "dmrs_bank",
    "matched_filter",
    "estimate_in_place",
    "chest_task",
]


#: Fraction of the time-domain span kept at positive delays.
KEEP_FRACTION = 0.125
#: Fraction kept at wrapped negative delays: the other half of a
#: fractional-delay main lobe. Both stay below the layer spacing (1/4 of
#: the span), or cross-layer interference leaks through.
BACK_FRACTION = 0.0625


def window_lengths(n: int) -> tuple[int, int]:
    """(keep_front, keep_back) sample counts of the window for span ``n``."""
    return max(1, int(round(KEEP_FRACTION * n))), int(round(BACK_FRACTION * n))


@lru_cache(maxsize=None)
def dmrs_bank(num_subcarriers: int) -> np.ndarray:
    """``(MAX_LAYERS, subcarriers)`` conjugated DMRS, one row a layer.

    Built once per width and process (cached, read-only); every layer
    count reads its leading rows. The transmitter generates its own DMRS,
    so a wrong row here still fails CRC against an independent side.
    """
    rows = [dmrs_for_layer(num_subcarriers, layer) for layer in range(MAX_LAYERS)]
    bank = np.conj(np.stack(rows))
    bank.setflags(write=False)
    return bank


@lru_cache(maxsize=128)
def _window(num_subcarriers: int) -> np.ndarray:
    window = wraparound_window(num_subcarriers, *window_lengths(num_subcarriers))
    window.setflags(write=False)
    return window


def matched_filter(received_ref: np.ndarray, layer: int) -> np.ndarray:
    """Multiply the received reference symbol by the layer's conjugate DMRS."""
    if not 0 <= layer < MAX_LAYERS:
        raise ValueError(f"layer {layer} outside [0, {MAX_LAYERS})")
    received_ref = np.asarray(received_ref, dtype=np.complex128).reshape(-1)
    return received_ref * dmrs_bank(received_ref.size)[layer]


def estimate_in_place(matched: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IFFT → guard noise → window → FFT along the last axis, in place.

    ``matched`` is a matched-filter product the caller built and owns,
    ``(..., subcarriers)``; it is overwritten and returned as the channel
    estimate. The noise (per-subcarrier variance: the guard samples' mean
    power times ``n``) has the leading shape and is read after the IFFT
    and before the window overwrites the guard span.
    """
    n = matched.shape[-1]
    np.fft.ifft(matched, axis=-1, out=matched)
    # The guard span lies between the kept window and the next layer's
    # offset (n/4): the window throws it away, so it holds (almost) no
    # channel energy of the desired layer, and its mean power estimates
    # noise plus cross-layer leakage — the disturbance the combiner
    # regularizes against. It is never empty.
    lo, _ = window_lengths(n)
    hi = max(lo + 1, n // 4)
    # add.reduce / count is what ndarray.mean computes, minus its wrapper.
    noise = np.add.reduce(np.abs(matched[..., lo:hi]) ** 2, axis=-1) / (hi - lo) * n
    np.multiply(matched, _window(n), out=matched)
    return np.fft.fft(matched, axis=-1, out=matched), noise


def chest_task(received_ref: np.ndarray, layer: int) -> tuple[np.ndarray, float]:
    """One (antenna, layer) channel-estimation task for one slot.

    Returns the frequency-domain channel estimate and the noise-variance
    estimate from the guard span, both from one matched filter and one
    IFFT.
    """
    channel, noise = estimate_in_place(matched_filter(received_ref, layer))
    return channel, float(noise)
