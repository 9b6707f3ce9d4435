"""Gray-mapped QPSK / 16-QAM / 64-QAM modulation, demodulation, and
max-log-MAP soft demapping.

The constellations follow 3GPP TS 36.211 Table 7.1.x: bits are mapped in
(I, Q) pairs with Gray labelling, and constellations are normalized to unit
average energy.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .params import Modulation

__all__ = [
    "constellation",
    "modulate",
    "demodulate_hard",
    "soft_demap",
    "bits_to_symbols",
    "symbols_to_bits",
]

# TS 36.211 per-axis PAM levels, before normalization. For each axis the
# bits select levels with Gray labelling; the tables below give the level
# for each integer value of the bit group controlling that axis.
_PAM_QPSK = np.array([1.0, -1.0])
_PAM_16 = np.array([1.0, 3.0, -1.0, -3.0])
_PAM_64 = np.array([3.0, 1.0, 5.0, 7.0, -3.0, -1.0, -5.0, -7.0])

_NORM = {
    Modulation.QPSK: np.sqrt(2.0),
    Modulation.QAM16: np.sqrt(10.0),
    Modulation.QAM64: np.sqrt(42.0),
}

_PAM = {
    Modulation.QPSK: _PAM_QPSK,
    Modulation.QAM16: _PAM_16,
    Modulation.QAM64: _PAM_64,
}


@lru_cache(maxsize=None)
def _cached_constellation(modulation: Modulation) -> np.ndarray:
    """Read-only cached constellation (hot path: one build per modulation)."""
    bits_per_symbol = modulation.bits_per_symbol
    half = bits_per_symbol // 2
    pam = _PAM[modulation]
    points = np.empty(1 << bits_per_symbol, dtype=np.complex128)
    for label in range(1 << bits_per_symbol):
        bits = [(label >> (bits_per_symbol - 1 - k)) & 1 for k in range(bits_per_symbol)]
        i_idx = 0
        q_idx = 0
        for k in range(half):
            i_idx = (i_idx << 1) | bits[2 * k]
            q_idx = (q_idx << 1) | bits[2 * k + 1]
        points[label] = (pam[i_idx] + 1j * pam[q_idx]) / _NORM[modulation]
    points.setflags(write=False)
    return points


def constellation(modulation: Modulation) -> np.ndarray:
    """Return the full unit-energy constellation as a complex array.

    The point at index ``i`` corresponds to the bit label given by the
    binary expansion of ``i`` (MSB first), with bits interleaved between
    the I and Q axes per TS 36.211 (even-position bits steer I, odd
    position bits steer Q).
    """
    return _cached_constellation(modulation).copy()


@lru_cache(maxsize=None)
def _cached_pam_column(modulation: Modulation) -> np.ndarray:
    """Normalized per-axis PAM levels as a read-only column vector.

    ``_PAM[m][i] / norm`` is exactly the I (or Q) coordinate of every
    constellation point whose axis bit-group equals ``i`` — complex
    division by a real scalar is componentwise, so these match
    ``constellation(m).real``/``.imag`` bit-for-bit.
    """
    levels = (_PAM[modulation] / _NORM[modulation])[:, None]
    levels.setflags(write=False)
    return levels


def bits_to_symbols(bits: np.ndarray, modulation: Modulation) -> np.ndarray:
    """Group a flat bit array into integer symbol labels (MSB first)."""
    bits = np.asarray(bits, dtype=np.int64)
    bps = modulation.bits_per_symbol
    if bits.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if bits.size % bps:
        raise ValueError(
            f"bit count {bits.size} not a multiple of {bps} for {modulation.value}"
        )
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bits must be 0/1")
    grouped = bits.reshape(-1, bps)
    weights = 1 << np.arange(bps - 1, -1, -1)
    return grouped @ weights


def symbols_to_bits(labels: np.ndarray, modulation: Modulation) -> np.ndarray:
    """Expand integer symbol labels back into a flat bit array (MSB first)."""
    labels = np.asarray(labels, dtype=np.int64)
    bps = modulation.bits_per_symbol
    shifts = np.arange(bps - 1, -1, -1)
    return ((labels[:, None] >> shifts) & 1).reshape(-1)


def modulate(bits: np.ndarray, modulation: Modulation) -> np.ndarray:
    """Map a flat 0/1 bit array onto unit-energy constellation symbols."""
    labels = bits_to_symbols(bits, modulation)
    return constellation(modulation)[labels]


def demodulate_hard(symbols: np.ndarray, modulation: Modulation) -> np.ndarray:
    """Minimum-distance hard demodulation back to a flat bit array."""
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    points = constellation(modulation)
    # Distance from every received symbol to every constellation point.
    dist = np.abs(symbols[:, None] - points[None, :])
    labels = np.argmin(dist, axis=1)
    return symbols_to_bits(labels, modulation)


#: Symbols per :func:`soft_demap` block. One block's working set — the
#: input slice, the ``(2^(bps/2), block)`` distance scratch, its min-tree
#: and the ``(block, bps)`` output rows — stays L2-resident, so every pass
#: after the first runs out of cache; 4 096-8 192 measured best on a
#: 4 MiB-L2 host. A constant, not a parameter: blocking never changes a bit.
_DEMAP_BLOCK = 4096


def soft_demap(
    symbols: np.ndarray,
    modulation: Modulation,
    noise_variance: float | np.ndarray = 1.0,
) -> np.ndarray:
    """Max-log-MAP soft demapping to log-likelihood ratios.

    Parameters
    ----------
    symbols:
        Equalized complex symbols (any shape; flattened).
    modulation:
        Constellation in use.
    noise_variance:
        Post-equalization noise variance, scalar or per-symbol array.

    Returns
    -------
    numpy.ndarray
        LLRs, one row of ``bits_per_symbol`` values per input symbol,
        flattened to 1-D in transmission bit order. Positive LLR means
        bit 0 is more likely (the conventional LLR = log P(b=0)/P(b=1)).
    """
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    noise = np.asarray(noise_variance, dtype=np.float64)
    if noise.shape != symbols.shape:
        noise = np.broadcast_to(noise, symbols.shape)
    if np.any(noise <= 0):
        raise ValueError("noise_variance must be positive")
    bps = modulation.bits_per_symbol
    half = bps // 2
    # The TS 36.211 constellations are Gray-mapped squares: the squared
    # distance separates as (pI-sI)² + (pQ-sQ)², even-position bits steer
    # only the I level and odd-position bits only the Q level. For a bit
    # steering one axis, the opposite axis attains the same minimum on
    # both hypotheses, so it cancels in the max-log difference:
    # LLR = (min_{axis bit=1} d_axis² − min_{axis bit=0} d_axis²)/noise.
    # This works per axis on 2^(bps/2) PAM levels instead of 2^bps
    # constellation points — the factorization that keeps soft demapping
    # from dominating the whole receiver tail at 64-QAM.
    levels = _cached_pam_column(modulation)
    num = symbols.size
    # Row k holds symbol k's LLRs in transmission order, so the flat
    # result needs no transpose.
    llrs = np.empty((num, bps), dtype=np.float64)
    # Scratch is per call: the threaded backend runs this kernel
    # concurrently. suffix[t] is the block's squared distances minimized
    # over the trailing t label bits of the axis.
    block = max(1, min(num, _DEMAP_BLOCK))
    suffix = [np.empty((1 << (half - t), block)) for t in range(half)]
    d01 = np.empty((2, block))
    for lo in range(0, num, block):
        hi = min(lo + block, num)
        width = hi - lo
        tree = [level[:, :width] for level in suffix]
        minima = d01[:, :width]
        diff = minima[1]
        for offset, coords in ((0, symbols.real), (1, symbols.imag)):
            np.subtract(levels, coords[lo:hi], out=tree[0])
            np.square(tree[0], out=tree[0])
            # Axis labels are MSB-first over this axis's bit-group, so each
            # bit's 0/1 level subsets are alternating contiguous blocks: a
            # suffix min-tree over trailing label bits yields every bit's
            # two minima from cheap block reductions (min is
            # order-independent).
            for t in range(1, half):
                pairs = tree[t - 1].reshape(-1, 2, width)
                np.minimum(pairs[:, 0], pairs[:, 1], out=tree[t])
            # The axis's leading bit: the top of the tree is its two minima
            # already (a min over one row pair would be a copy).
            top = tree[half - 1]
            np.subtract(top[1], top[0], out=diff)
            np.divide(diff, noise[lo:hi], out=llrs[lo:hi, offset])
            for j in range(1, half):
                # tree[half-1-j] rows are indexed by this axis's leading
                # j+1 bits; axis 0 below spans the leading bits, axis 1 is
                # the bit being demapped (transmitted at position
                # 2j+offset).
                level = tree[half - 1 - j].reshape(1 << j, 2, width)
                np.minimum.reduce(level, axis=0, out=minima)
                np.subtract(minima[1], minima[0], out=diff)
                np.divide(diff, noise[lo:hi], out=llrs[lo:hi, 2 * j + offset])
    return llrs.reshape(-1)


def llrs_to_bits(llrs: np.ndarray) -> np.ndarray:
    """Hard decisions from LLRs (LLR < 0 → bit 1), one ``uint8`` per bit."""
    return (np.asarray(llrs) < 0).view(np.uint8)
