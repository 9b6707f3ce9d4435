"""Channel estimation: matched filter → IFFT → window → FFT (Fig. 3).

Estimation runs once per slot, per (receive antenna, layer) pair — the
per-task unit the benchmark parallelizes (Section III: up to 4 antennas ×
4 layers = 16 tasks per slot).

Layers share the reference symbol through cyclically shifted DMRS
sequences, so the matched filter (multiply by the conjugate of the desired
layer's sequence) moves the desired layer's channel response to the leading
time-domain span and the other layers' responses to offsets of N/4, N/2,
3N/4; the time-domain window then isolates the desired layer.
"""

from __future__ import annotations

import numpy as np

from .fftutil import wraparound_window
from .sequences import dmrs_for_layer

__all__ = [
    "KEEP_FRACTION",
    "BACK_FRACTION",
    "window_lengths",
    "matched_filter",
    "estimate_channel",
    "estimate_noise_variance",
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


def matched_filter(received_ref: np.ndarray, layer: int) -> np.ndarray:
    """Multiply the received reference symbol by the layer's conjugate DMRS."""
    received_ref = np.asarray(received_ref, dtype=np.complex128).reshape(-1)
    reference = dmrs_for_layer(received_ref.size, layer)
    return received_ref * np.conj(reference)


def estimate_channel(received_ref: np.ndarray, layer: int) -> np.ndarray:
    """Estimate one (antenna, layer) channel from a received reference symbol.

    Implements the paper's four-kernel chain: matched filter, IFFT to time
    domain, window, FFT back to frequency domain.
    """
    raw = matched_filter(received_ref, layer)
    n = raw.size
    impulse = np.fft.ifft(raw)
    impulse *= wraparound_window(n, *window_lengths(n))
    return np.fft.fft(impulse)


def estimate_noise_variance(received_ref: np.ndarray, layer: int) -> float:
    """Estimate the noise variance from the discarded time-domain span.

    The samples the window throws away contain (almost) no channel energy
    for the desired layer, so their mean power estimates noise plus
    cross-layer leakage — which is exactly the disturbance the combiner
    should regularize against.
    """
    raw = matched_filter(received_ref, layer)
    n = raw.size
    impulse = np.fft.ifft(raw)
    keep, _ = window_lengths(n)
    # Use the guard region between the kept span and the next layer's
    # expected offset (n/4) — it holds noise only.
    guard = impulse[keep : max(keep + 1, n // 4)]
    if guard.size == 0:
        guard = impulse[keep:]
    if guard.size == 0:
        return 0.0
    # Per-subcarrier noise variance: time-domain sample power times n.
    return float(np.mean(np.abs(guard) ** 2) * n)
