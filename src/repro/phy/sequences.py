"""Uplink demodulation reference signals (DMRS).

LTE uplink reference symbols are built from Zadoff–Chu (ZC) sequences
(TS 36.211 §5.5): constant-amplitude sequences whose cyclic shifts are
orthogonal, which is what lets one reference symbol serve several layers.
The channel estimator's matched filter multiplies the received reference
symbol by the conjugate of the known sequence, exactly as in the paper's
Fig. 3 chain.
"""

from __future__ import annotations

import numpy as np

from .params import SUBCARRIERS_PER_PRB

__all__ = [
    "zadoff_chu",
    "largest_prime_below",
    "base_sequence",
    "dmrs_for_layer",
    "cyclic_shift",
]

#: Cyclic shifts of the reference symbol (TS 36.211 §5.5.2.1.1); the layers
#: spread evenly over them.
NUM_CYCLIC_SHIFTS = 12


def largest_prime_below(n: int) -> int:
    """Largest prime strictly below ``n`` (ZC sequence length selection)."""
    if n <= 2:
        raise ValueError("no prime strictly below 2")
    candidate = n - 1
    while candidate >= 2:
        if _is_prime(candidate):
            return candidate
        candidate -= 1
    raise ValueError("unreachable")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def zadoff_chu(root: int, length: int) -> np.ndarray:
    """Zadoff–Chu sequence of a given root and (odd prime) length.

    ``x_q(m) = exp(-j * pi * q * m * (m+1) / N_zc)`` for odd ``N_zc``.
    """
    if length < 3:
        raise ValueError("length must be >= 3")
    if not _is_prime(length):
        raise ValueError("Zadoff-Chu length must be prime for full orthogonality")
    if not 1 <= root < length:
        raise ValueError(f"root must be in [1, {length - 1}]")
    m = np.arange(length)
    return np.exp(-1j * np.pi * root * m * (m + 1) / length)


def base_sequence(num_subcarriers: int, group: int = 0) -> np.ndarray:
    """DMRS base sequence spanning ``num_subcarriers`` subcarriers.

    Follows the TS 36.211 construction for allocations of three or more
    PRBs: a ZC sequence of the largest prime length below the allocation
    width, cyclically extended to the allocation width. ``group`` selects
    the ZC root (sequence-group hopping is out of scope; a fixed group per
    cell is used).
    """
    if num_subcarriers < SUBCARRIERS_PER_PRB:
        raise ValueError(
            f"allocation must span at least one PRB ({SUBCARRIERS_PER_PRB} subcarriers)"
        )
    n_zc = largest_prime_below(num_subcarriers)
    root = (group % (n_zc - 1)) + 1
    zc = zadoff_chu(root, n_zc)
    idx = np.arange(num_subcarriers) % n_zc
    return zc[idx]


def cyclic_shift(sequence: np.ndarray, shift_index: int) -> np.ndarray:
    """Apply a phase-ramp cyclic shift ``exp(j*2*pi*shift*n/NUM_CYCLIC_SHIFTS)``.

    Distinct shift indices give (near-)orthogonal reference sequences,
    which is how multiple layers share the reference symbol.
    """
    sequence = np.asarray(sequence, dtype=np.complex128)
    n = np.arange(sequence.size)
    alpha = 2.0 * np.pi * (shift_index % NUM_CYCLIC_SHIFTS) / NUM_CYCLIC_SHIFTS
    return sequence * np.exp(1j * alpha * n)


def dmrs_for_layer(num_subcarriers: int, layer: int, group: int = 0) -> np.ndarray:
    """Reference sequence for one transmission layer.

    Layers are separated by spreading the available cyclic shifts evenly,
    mirroring LTE's cyclic-shift-based DMRS multiplexing across layers.
    """
    if layer < 0:
        raise ValueError("layer must be >= 0")
    base = base_sequence(num_subcarriers, group=group)
    # Spread layers across the shift space for maximal separation.
    shift = (layer * (NUM_CYCLIC_SHIFTS // 4)) % NUM_CYCLIC_SHIFTS
    return cyclic_shift(base, shift)
