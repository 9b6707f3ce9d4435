"""FFT helpers for the channel-estimation chain.

The paper's channel estimator transforms the matched-filter output to the
time domain (IFFT), applies a window that keeps only the span where the
channel's impulse response can live, and transforms back (FFT). This module
provides that window plus a self-contained radix-2 FFT used by the test
suite to cross-check numpy.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "is_power_of_two",
    "fft_radix2",
    "ifft_radix2",
    "wraparound_window",
]


def is_power_of_two(n: int) -> bool:
    """True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def fft_radix2(x: np.ndarray) -> np.ndarray:
    """Iterative radix-2 decimation-in-time FFT.

    A reference implementation (O(n log n), power-of-two lengths only) used
    to validate that the numpy transforms the library relies on agree with
    an independent implementation.
    """
    x = np.asarray(x, dtype=np.complex128).reshape(-1).copy()
    n = x.size
    if not is_power_of_two(n):
        raise ValueError("radix-2 FFT requires a power-of-two length")
    # Bit-reversal permutation.
    levels = n.bit_length() - 1
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for bit in range(levels):
        reversed_indices |= ((indices >> bit) & 1) << (levels - 1 - bit)
    x = x[reversed_indices]
    # Butterflies.
    size = 2
    while size <= n:
        half = size // 2
        twiddle = np.exp(-2j * np.pi * np.arange(half) / size)
        x = x.reshape(-1, size)
        even = x[:, :half]
        odd = x[:, half:] * twiddle
        x = np.concatenate([even + odd, even - odd], axis=1).reshape(-1)
        size *= 2
    return x


def ifft_radix2(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fft_radix2` (1/n normalization)."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    return np.conj(fft_radix2(np.conj(x))) / x.size


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
