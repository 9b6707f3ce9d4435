"""FFT helpers for the channel-estimation chain.

The paper's channel estimator transforms the matched-filter output to the
time domain (IFFT), applies a window that keeps only the span where the
channel's impulse response can live, and transforms back (FFT). This module
provides that window; the transforms are NumPy's.
"""

from __future__ import annotations

import numpy as np

__all__ = ["wraparound_window"]


def wraparound_window(length: int, keep_front: int, keep_back: int) -> np.ndarray:
    """Window keeping ``[0, keep_front)`` plus the wrapped ``[-keep_back, 0)``.

    The channel impulse response of an allocation occupies only a small
    span around delay zero of the IFFT output (delay spread ≪ symbol
    length), so the estimator zeroes everything else. A fractional delay
    puts energy on both sides of delay zero; the negative-delay half wraps
    to the end of the IFFT buffer, so a one-sided window would discard half
    the main lobe.
    """
    if keep_front < 1 or keep_back < 0 or keep_front + keep_back > length:
        raise ValueError("keep_front >= 1 and keep_back >= 0 must fit in length")
    window = np.zeros(length, dtype=np.float64)
    window[:keep_front] = 1.0
    if keep_back:
        window[-keep_back:] = 1.0
    return window
