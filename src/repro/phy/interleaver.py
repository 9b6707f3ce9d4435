"""Channel interleaving / deinterleaving.

A row-column block interleaver in the spirit of the LTE PUSCH channel
interleaver (TS 36.212 §5.2.2.8): bits are written row-wise into a matrix
with a fixed number of columns, the columns are permuted, and bits are read
column-wise. The receiver chain applies the inverse after antenna combining,
as in the paper's Fig. 3 ("deinterleaver").
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "NUM_COLUMNS",
    "COLUMN_PERMUTATION",
    "interleave",
    "deinterleave",
    "deinterleave_rows",
    "interleave_indices",
    "deinterleave_indices",
]

#: Number of interleaver columns (LTE's sub-block interleaver uses 32).
NUM_COLUMNS = 32

#: TS 36.212 Table 5.1.4-1 inter-column permutation pattern.
COLUMN_PERMUTATION = np.array(
    [
        0, 16, 8, 24, 4, 20, 12, 28, 2, 18, 10, 26, 6, 22, 14, 30,
        1, 17, 9, 25, 5, 21, 13, 29, 3, 19, 11, 27, 7, 23, 15, 31,
    ],
    dtype=np.int64,
)


def _build_indices(length: int) -> np.ndarray:
    """Read-only interleaver permutation for one length."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rows = -(-length // NUM_COLUMNS)  # ceil division
    padded = rows * NUM_COLUMNS
    matrix = np.arange(padded).reshape(rows, NUM_COLUMNS)
    permuted = matrix[:, COLUMN_PERMUTATION]
    read_out = permuted.T.reshape(-1)
    indices = read_out[read_out < length]
    indices.setflags(write=False)
    return indices


#: Hot-path cache of :func:`_build_indices`, one entry per stream length.
_cached_indices = lru_cache(maxsize=256)(_build_indices)


def interleave_indices(length: int) -> np.ndarray:
    """Permutation ``p`` such that ``out[i] = in[p[i]]`` interleaves.

    Dummy positions created by padding the matrix to a whole number of rows
    are pruned, so the permutation is exact for any length. Returns a
    fresh (writable) copy; the kernels share a cached read-only variant.
    """
    return _cached_indices(int(length)).copy()


def deinterleave_indices(length: int) -> np.ndarray:
    """Permutation ``q`` such that ``out[i] = in[q[i]]`` deinterleaves.

    The inverse of :func:`interleave_indices`, as a gather index: callers
    that compose deinterleaving with another reordering (the batched tail
    folds the layer demapping in) build one index and keep it themselves,
    so nothing is cached here.
    """
    indices = _build_indices(int(length))
    inverse = np.empty(indices.size, dtype=np.intp)
    inverse[indices] = np.arange(indices.size)
    return inverse


def interleave(values: np.ndarray) -> np.ndarray:
    """Interleave a 1-D array (bits or LLRs)."""
    values = np.asarray(values).reshape(-1)
    return values[_cached_indices(values.size)]


def deinterleave(values: np.ndarray) -> np.ndarray:
    """Invert :func:`interleave`."""
    values = np.asarray(values).reshape(-1)
    indices = _cached_indices(values.size)
    out = np.empty_like(values)
    out[indices] = values
    return out


def deinterleave_rows(values: np.ndarray) -> np.ndarray:
    """Invert :func:`interleave` independently on every row of a 2-D array.

    The batched backend stacks the interleaved streams of all same-shape
    users into ``(users, n)``; one fancy-indexed assignment deinterleaves
    every row with the shared permutation, bit-exactly matching per-row
    :func:`deinterleave` calls.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError("values must be two-dimensional (rows, n)")
    indices = _cached_indices(values.shape[1])
    out = np.empty_like(values)
    out[:, indices] = values
    return out
