"""Batched vectorized Fig. 5 kernels.

The serial chain (:mod:`repro.phy.chain`) runs one (slot, antenna, layer)
channel-estimation task and one (data symbol, layer) combining task per
NumPy call — faithful to the paper's task decomposition, but each call
touches a few-kilobyte array, so interpreter overhead dominates. This
module provides the same four kernels with the task axes *stacked*: all
(slot, antenna, layer) estimates of a user — and all users of a call that
share an allocation shape — move through matched filter, IFFT, window,
FFT, the combiner-weight elimination, antenna combining, and soft
demapping as single NumPy calls over 3-D/4-D arrays (the shape the Vienna
LTE-A simulator and srsLTE use for their hot loops).

Every kernel is *bit-exact* with its serial counterpart: NumPy computes a
batched FFT/einsum row by row with the same kernels the 1-D calls use, so
stacking changes neither operation order nor rounding, and the combiner
*is* the serial chain's function, element-wise along the subcarriers. The
differential suite (``tests/differential``) enforces this against the
serial and threaded backends.

**What is overwritten.** A stage holds one stage-sized array, not one per
step: :func:`batched_chest` builds the matched-filter product against the
width's cached DMRS table and hands it to
:func:`repro.phy.chest.estimate_in_place` — the pass the serial chain's
:func:`~repro.phy.chest.chest_task` runs too — which runs the IFFT, the
window multiply and the FFT *into that same array* (``out=``), reading the
guard-span noise after the IFFT and before the window;
:func:`batched_combine_symbols` runs the IFFT and the ``√K`` scale
into the einsum's output. Each of those arrays is created inside the call
and returned from it, so nothing a caller passed is ever written — the
pool's workers pass read-only views of the shared grid — and an in-place
ufunc or pocketfft transform computes each element exactly as the
out-of-place one does (``tests/phy/test_in_place.py`` pins both).

Shapes use leading *batch* dimensions written ``(...,)``: a single user
passes ``(slots, ...)`` arrays, a user group passes ``(users, slots,
...)`` arrays. All kernels coerce inputs to the canonical dtypes of
:mod:`repro.phy.dtypes` so a stray ``complex64`` (or ``longdouble``)
input cannot silently change the precision of a whole batch.

Only the two FFT kernels need a batch to agree on a subcarrier count, and
:mod:`repro.uplink.vectorized` calls only those two from here, once per
``(antennas, subcarriers, layers)`` *front group*. The combiner and the
demapper are element-wise along their last axis, so that backend lays
users of *different* widths end to end along it and calls
:func:`repro.phy.equalizer.mmse_combiner` and
:func:`repro.phy.modulation.soft_demap` directly, once per layer count and
once per modulation; :func:`batched_combiner_weights` and
:func:`batched_soft_demap` are the same two functions in the rectangular
one-shape form, which is what the golden vectors and ``perf/``'s kernel
probes pin.
"""

from __future__ import annotations

import numpy as np

from .chest import dmrs_bank, estimate_in_place
from .dtypes import REAL_DTYPE, ensure_complex
from .equalizer import mmse_combiner
from .modulation import soft_demap
from .params import MAX_LAYERS

__all__ = [
    "batched_chest",
    "batched_combiner_weights",
    "batched_combine_symbols",
    "batched_soft_demap",
]


def batched_chest(refs: np.ndarray, layers: int) -> tuple[np.ndarray, np.ndarray]:
    """All (antenna, layer) channel-estimation tasks in one shot.

    Parameters
    ----------
    refs:
        Received reference symbols, shape ``(..., antennas, subcarriers)``
        — one row per antenna, arbitrary leading batch dimensions (slots,
        users).
    layers:
        Number of layers to estimate per antenna, 1 to ``MAX_LAYERS``.

    Returns
    -------
    (channel, noise):
        ``channel`` has shape ``(..., antennas, layers, subcarriers)``;
        ``noise`` holds the per-task noise-variance estimates with shape
        ``(..., antennas, layers)``. Both are bit-exact with per-task
        :func:`repro.phy.chest.chest_task` calls.
    """
    if not 1 <= layers <= MAX_LAYERS:
        raise ValueError(f"layers {layers} outside [1, {MAX_LAYERS}]")
    refs = ensure_complex(refs)
    # Matched filter: (..., antennas, 1, sc) * (layers, sc) — a fresh array,
    # which the rest of the pass overwrites.
    bank = dmrs_bank(refs.shape[-1])[:layers]
    return estimate_in_place(refs[..., :, None, :] * bank)


def batched_combiner_weights(
    channel: np.ndarray, noise_variance: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """MMSE weights + bias removal + post-combining noise, batched.

    :func:`repro.phy.equalizer.mmse_combiner`, the function
    :func:`repro.phy.chain.combiner_stage` calls per slot, over every
    (batch element, subcarrier) system at once: ``channel`` is ``(...,
    antennas, layers, subcarriers)`` and ``noise_variance`` ``(...)``;
    returns ``weights``, shape ``(..., layers, antennas, subcarriers)``,
    and ``noise_after``, shape ``(..., layers, subcarriers)``.
    """
    return mmse_combiner(channel, noise_variance)


def batched_combine_symbols(received: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """All (data symbol, layer) combining + SC-FDMA IFFT tasks at once.

    Parameters
    ----------
    received:
        Data symbols, shape ``(..., antennas, symbols, subcarriers)``.
    weights:
        Slot combiner weights, shape ``(..., layers, antennas,
        subcarriers)`` (same leading batch dimensions as ``received``).
        With ``(users, slots)`` leading, both slots of a subframe go
        through one einsum and one IFFT.

    Returns
    -------
    numpy.ndarray
        Despread time-domain symbols, shape ``(..., layers, symbols,
        subcarriers)`` — bit-exact with per-task
        :func:`repro.phy.chain.symbol_task` calls.
    """
    received = ensure_complex(received)
    weights = ensure_complex(weights)
    if received.shape[-3] != weights.shape[-2]:
        raise ValueError("antenna count mismatch between data and weights")
    if received.shape[-1] != weights.shape[-1]:
        raise ValueError("subcarrier count mismatch between data and weights")
    num_sc = received.shape[-1]
    combined = np.einsum("...lak,...ask->...lsk", weights, received)
    # Inverse transform precoding: undo the transmitter's DFT, then the √K
    # scale, both over the einsum's own output.
    np.fft.ifft(combined, axis=-1, out=combined)
    return np.multiply(combined, np.sqrt(num_sc), out=combined)


def batched_soft_demap(
    symbols: np.ndarray,
    modulation,
    noise_variance: np.ndarray,
) -> np.ndarray:
    """Max-log-MAP soft demapping over a batch of symbol streams.

    ``symbols`` and ``noise_variance`` have shape ``(batch, n)``; returns
    LLRs of shape ``(batch, n * bits_per_symbol)``. Demapping is
    element-wise per symbol, so stacking rows is trivially bit-exact with
    per-row :func:`repro.phy.modulation.soft_demap` calls.
    """
    symbols = ensure_complex(symbols)
    if symbols.ndim != 2:
        raise ValueError("symbols must be (batch, n)")
    noise = np.broadcast_to(
        np.asarray(noise_variance, dtype=REAL_DTYPE), symbols.shape
    )
    llrs = soft_demap(symbols.reshape(-1), modulation, noise.reshape(-1))
    return llrs.reshape(symbols.shape[0], -1)
