"""LTE cyclic redundancy checks (TS 36.212 §5.1.1).

Implements the gCRC24A, gCRC24B, gCRC16 and gCRC8 generator polynomials used
by LTE transport-channel processing, both as a straightforward bitwise
shift-register and as a vectorized variant used on hot paths: the CRC is
linear over GF(2), so the register after an ``n``-bit message is the XOR of
``x^(width + n - 1 - i) mod g(x)`` over the set bit positions ``i``. The
remainders of ``x^k`` are cached per polynomial (grown on demand), turning
each CRC into one ``np.bitwise_xor.reduce`` — identical results to the
bitwise reference, which ``compute_bitwise`` keeps as the oracle. The
receiver chain attaches CRC24A to each user's transport block and checks it
after (pass-through) turbo decoding, as in Fig. 3 of the paper.

Checking needs no register value at all: a codeword ``c`` passes iff
``c(x) mod g(x) = 0``, i.e. iff for each of the ``width`` remainder bits
``j`` the codeword has an even number of set bits ``i`` with bit ``j`` set
in ``x^(n-1-i) mod g``. :func:`crc_check_rows` packs the bits of many
codewords at once and takes those parities as AND + popcount against one
packed mask per remainder bit. The exponent depends only on a bit's distance
from the *end* of the codeword, so one right-aligned mask table per
polynomial serves every length: a length-``n`` check reads its last ``n``
mask columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CrcPolynomial",
    "CRC24A",
    "CRC24B",
    "CRC16",
    "CRC8",
    "crc_attach",
    "crc_check",
    "crc_check_rows",
]


@dataclass(frozen=True)
class CrcPolynomial:
    """A CRC generator polynomial of degree ``width``.

    ``poly`` holds the polynomial coefficients below the leading term, MSB
    first (the conventional "normal" representation).
    """

    name: str
    width: int
    poly: int
    _remainders: np.ndarray = field(init=False, repr=False, compare=False)
    _parity_masks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # x^0 mod g(x) = 1; grown on demand by _remainders_upto.
        seed = np.array([1], dtype=np.uint64)
        seed.setflags(write=False)
        object.__setattr__(self, "_remainders", seed)
        # Grown on demand by _parity_masks_upto.
        object.__setattr__(
            self, "_parity_masks", np.empty((self.width, 0), dtype=np.uint64)
        )

    def _times_x(self, reg: int) -> int:
        """``reg(x) · x mod g(x)``: one shift-register step."""
        reg <<= 1
        if reg >> self.width:
            reg ^= (1 << self.width) | self.poly
        return reg

    def _remainders_upto(self, count: int) -> np.ndarray:
        """``x^k mod g(x)`` for ``k in [0, count)``, cached and grown on demand.

        Growth is geometric so repeated CRCs over ever-longer messages stay
        amortized O(1) per bit. Concurrent growth from the thread runtime is
        benign: the extension is deterministic, so racing writers install
        identical arrays and readers only ever see a complete snapshot.
        """
        cached = self._remainders
        if cached.size >= count:
            return cached
        target = max(count, 2 * cached.size)
        grown = np.empty(target, dtype=np.uint64)
        grown[: cached.size] = cached
        size = cached.size
        while size < target:
            # x^(size+k) = x^size · x^k: multiplying by a constant is linear
            # over GF(2), so the next block is the XOR over remainder bits b
            # of (bit b of x^k) · (x^size · x^b mod g) — one masked XOR per
            # bit on the whole block, and the table doubles per pass.
            step = min(size, target - size)
            source = grown[:step]
            block = grown[size : size + step]
            block[:] = 0
            scratch = np.empty_like(source)
            factor = self._times_x(int(grown[size - 1]))
            for bit in range(self.width):
                np.right_shift(source, np.uint64(bit), out=scratch)
                np.bitwise_and(scratch, np.uint64(1), out=scratch)
                np.multiply(scratch, np.uint64(factor), out=scratch)
                np.bitwise_xor(block, scratch, out=block)
                factor = self._times_x(factor)
            size += step
        grown.setflags(write=False)
        object.__setattr__(self, "_remainders", grown)
        return grown

    def _parity_masks_upto(self, num_words: int) -> np.ndarray:
        """Right-aligned packed parity masks covering ``64 * num_words`` bits.

        Row ``j`` is bit ``j`` of ``x^d mod g(x)`` for every distance ``d``
        from the end of a codeword, packed MSB-first like ``np.packbits``
        and viewed as ``uint64`` words, with ``d = 0`` in the last bit of
        the last word — so a check over ``w`` words reads ``[:, -w:]``
        whatever the table's size. One table per polynomial, grown
        geometrically and row by row: a ``(width, bits)`` intermediate would
        be 64x the table. Racing growers are benign for the same reason as
        in :meth:`_remainders_upto` (a smaller table landing last only
        costs a later regrow).
        """
        cached = self._parity_masks
        if cached.shape[1] >= num_words:
            return cached
        words = max(num_words, 2 * cached.shape[1])
        # Distance d sits at bit position 64*words-1-d; little-endian
        # 32-bit storage puts remainder bit j in octet j//8 of each entry.
        octets = (
            self._remainders_upto(64 * words)[64 * words - 1 :: -1]
            .astype("<u4")
            .view(np.uint8)
            .reshape(-1, 4)
        )
        grown = np.empty((self.width, words), dtype=np.uint64)
        for lane in range(self.width):
            bits = (octets[:, lane >> 3] >> (lane & 7)) & 1
            grown[lane] = np.packbits(bits).view(np.uint64)
        grown.setflags(write=False)
        object.__setattr__(self, "_parity_masks", grown)
        return grown

    def compute_bitwise(self, bits: np.ndarray) -> int:
        """Reference bitwise CRC over a 0/1 bit array (MSB-first order)."""
        bits = _as_bits(bits)
        reg = 0
        top = 1 << (self.width - 1)
        mask = (1 << self.width) - 1
        for bit in bits:
            reg ^= int(bit) << (self.width - 1)
            if reg & top:
                reg = ((reg << 1) ^ self.poly) & mask
            else:
                reg = (reg << 1) & mask
        return reg

    def compute(self, bits: np.ndarray) -> int:
        """Vectorized CRC over a 0/1 bit array (MSB-first order).

        Exploits GF(2) linearity: the register equals the XOR of
        ``x^(width + n - 1 - i) mod g(x)`` over set bit positions ``i``.
        Always matches :meth:`compute_bitwise` exactly.
        """
        bits = _as_bits(bits)
        set_positions = np.flatnonzero(bits)
        if not set_positions.size:
            return 0
        remainders = self._remainders_upto(self.width + bits.size)
        exponents = self.width + (bits.size - 1) - set_positions
        return int(np.bitwise_xor.reduce(remainders[exponents]))

    def to_bits(self, value: int) -> np.ndarray:
        """Expand a CRC register value to a bit array (MSB first)."""
        shifts = np.arange(self.width - 1, -1, -1)
        return ((value >> shifts) & 1).astype(np.int64)


def _require_binary(arr: np.ndarray) -> None:
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise ValueError("bits must be 0/1")


def _as_bits(bits: np.ndarray) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.int64).reshape(-1)
    _require_binary(arr)
    return arr


#: TS 36.212 transport-block CRC.
CRC24A = CrcPolynomial("CRC24A", 24, 0x864CFB)
#: TS 36.212 code-block segmentation CRC.
CRC24B = CrcPolynomial("CRC24B", 24, 0x800063)
#: TS 36.212 16-bit CRC (small transport blocks / control).
CRC16 = CrcPolynomial("CRC16", 16, 0x1021)
#: TS 36.212 8-bit CRC.
CRC8 = CrcPolynomial("CRC8", 8, 0x9B)


def crc_attach(bits: np.ndarray, poly: CrcPolynomial = CRC24A) -> np.ndarray:
    """Append the CRC parity bits to a payload bit array."""
    bits = _as_bits(bits)
    parity = poly.to_bits(poly.compute(bits))
    return np.concatenate([bits, parity])


def crc_check(bits_with_crc: np.ndarray, poly: CrcPolynomial = CRC24A) -> bool:
    """Check a payload+CRC bit array; returns True when the CRC matches."""
    bits = np.asarray(bits_with_crc).reshape(1, -1)
    return bool(crc_check_rows(bits, poly)[0])


def crc_check_rows(
    bits_with_crc: np.ndarray, poly: CrcPolynomial = CRC24A
) -> np.ndarray:
    """Check every row of a ``(rows, n)`` payload+CRC bit array at once.

    Returns a ``(rows,)`` boolean array, row for row what
    :func:`crc_check` returns. Boolean input is taken as is; any other
    dtype must hold 0/1 values. The rows are packed 64 bits to a word and
    checked as parities against the polynomial's mask table.
    """
    bits = np.asarray(bits_with_crc)
    if bits.ndim != 2:
        raise ValueError("bits_with_crc must be two-dimensional (rows, n)")
    if bits.dtype != np.bool_:
        _require_binary(bits)
        bits = bits.astype(np.bool_)
    num_rows, num_bits = bits.shape
    if num_bits < poly.width:
        raise ValueError("input shorter than the CRC itself")
    pad = -num_bits % 64
    if pad:
        # Leading zero bits change no remainder: pad on the left to whole words.
        bits = np.concatenate([np.zeros((num_rows, pad), np.bool_), bits], axis=1)
    words = np.packbits(bits, axis=1).view(np.uint64)
    num_words = words.shape[1]
    masks = poly._parity_masks_upto(num_words)[:, -num_words:]
    ones = np.bitwise_count(words[:, None, :] & masks).sum(axis=2, dtype=np.uint64)
    return ~(ones & np.uint64(1)).any(axis=1)
