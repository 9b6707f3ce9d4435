"""PUSCH bit scrambling with LTE Gold sequences (TS 36.211 §5.3.1 / §7.2).

LTE scrambles every user's coded bits with a user-specific pseudo-random
(length-31 Gold) sequence so that inter-cell interference looks like
noise. The paper's kernel list does not call scrambling out explicitly
(it is a trivially cheap XOR), but a realistic uplink transmits scrambled
bits — so the transmitter and receiver chain support it as an optional
stage: bits are XOR-scrambled before modulation, and the receiver flips
the corresponding LLR signs before decoding.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gold_sequence", "scramble_bits", "descramble_llrs"]

#: TS 36.211 §7.2: the second m-sequence is advanced by Nc = 1600.
_NC = 1600


def _lfsr_sequence(state: int, taps: tuple[int, ...], total: int) -> np.ndarray:
    """First ``total`` bits of ``x[n+31] = x[n] ^ x[n+t]...`` over ``taps``.

    ``state`` seeds ``x[0..30]`` (bit ``i`` is ``x[i]``). Squaring the
    characteristic polynomial ``s`` times over GF(2) gives the same
    recurrence stretched by ``s`` (``x[n+31s] = x[n] ^ x[n+ts]...``), whose
    next ``28s`` outputs depend only on bits already known — so each pass
    takes the largest such stride and the sequence nearly doubles per
    NumPy call instead of growing a bit per Python iteration.
    """
    x = np.empty(max(total, 31), dtype=np.uint8)
    x[:31] = (state >> np.arange(31)) & 1
    known = 31
    while known < total:
        stride = 1 << ((known // 31).bit_length() - 1)
        count = min(28 * stride, total - known)
        base = known - 31 * stride
        out = x[known : known + count]
        out[:] = x[base : base + count]
        for tap in taps:
            out ^= x[base + tap * stride : base + tap * stride + count]
        known += count
    return x[:total]


def gold_sequence(c_init: int, length: int) -> np.ndarray:
    """LTE pseudo-random sequence c(n) of the given length.

    ``x1`` is seeded with 1, ``x2`` with ``c_init``; both are length-31
    LFSRs (x1: x^31 = x^3 + 1; x2: x^31 = x^3 + x^2 + x + 1) and the output
    starts after the Nc = 1600 warm-up.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if not 0 <= c_init < (1 << 31):
        raise ValueError("c_init must fit in 31 bits")
    total = _NC + length
    x1 = _lfsr_sequence(1, (3,), total)
    x2 = _lfsr_sequence(c_init, (3, 2, 1), total)
    return (x1[_NC:] ^ x2[_NC:]).astype(np.int64)


def scramble_bits(bits: np.ndarray, c_init: int) -> np.ndarray:
    """XOR a coded bit stream with the user's Gold sequence."""
    bits = np.asarray(bits, dtype=np.int64).reshape(-1)
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bits must be 0/1")
    return bits ^ gold_sequence(c_init, bits.size)


def descramble_llrs(llrs: np.ndarray, c_init: int) -> np.ndarray:
    """Undo scrambling on soft values: flip LLR signs where c(n) = 1."""
    llrs = np.asarray(llrs, dtype=np.float64).reshape(-1)
    sequence = gold_sequence(c_init, llrs.size)
    return llrs * (1.0 - 2.0 * sequence)
