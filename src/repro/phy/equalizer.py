"""Combiner-weight computation and antenna combining.

After channel estimation the receiver computes, per subcarrier, weights
that merge the antennas and undo the channel (Fig. 3's "combiner weight
calculation" and "antenna combining"). :func:`mmse_combiner` is the one
implementation of that join: the serial chain calls it per slot with that
slot's scalar noise, the batched chain once for all the users of a call
that share ``(antennas, layers)`` — whatever their widths, laid end to end
along the subcarrier axis with a noise variance per subcarrier.
"""

from __future__ import annotations

import numpy as np

from .dtypes import COMPLEX_DTYPE, REAL_DTYPE, ensure_complex

__all__ = ["combine_antennas", "mmse_combiner"]


def mmse_combiner(
    channel: np.ndarray, noise_variance: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unbiased per-subcarrier MMSE weights and post-combining noise.

    Solves ``(HᴴH + (σ² + 1e-12)·I) W = Hᴴ`` per subcarrier by Gaussian
    elimination *without pivoting* (the matrix is Hermitian positive
    definite, so this is backward stable), then divides each layer's row
    by its gain ``Σ_a W[l, a]·H[a, l]`` (unless within 1e-9 of zero) so
    the output constellation is unit-scaled.

    Only element-wise ufuncs along the subcarrier axis are used, with
    Python loops over the layer/antenna indices and antennas summed in
    index order, so a result depends on nothing else in the call: a batch
    element is bit-identical to the same element passed alone (given two
    or more subcarriers, so that NumPy's inner loops run along them). A
    singular system does not raise (a LAPACK solve would, for everything
    stacked with it): that subcarrier's weights and noise come out NaN,
    silently.

    Parameters
    ----------
    channel:
        Channel estimates, shape ``(..., antennas, layers, subcarriers)``.
    noise_variance:
        Per-antenna complex noise variance σ². Shape ``(...)`` — one value
        per batch element, a scalar for an unbatched call (what the serial
        ``combiner_stage`` passes per slot) — or ``(..., subcarriers)``, one
        value per subcarrier: the *ragged* use, where the subcarrier axis
        holds several users' allocations end to end, each with its own σ².
        The arithmetic is the same either way (σ² only ever broadcasts
        along the subcarriers), so a user's columns are bit-identical to
        that user passed alone with its scalar.

    Returns
    -------
    (weights, noise_after):
        ``weights``: shape ``(..., layers, antennas, subcarriers)``, with
        ``x_hat[l, k] = Σ_a W[l, a, k]·y[a, k]``. ``noise_after``: shape
        ``(..., layers, subcarriers)``, ``σ²·Σ_a |W[l, a, k]|²`` — what the
        soft demapper scales its LLRs by.
    """
    channel = ensure_complex(channel)
    if channel.ndim < 3:
        raise ValueError("channel must be (..., antennas, layers, subcarriers)")
    batch = channel.shape[:-3]
    num_antennas, num_layers, num_sc = channel.shape[-3:]
    if num_layers > num_antennas:
        raise ValueError("cannot separate more layers than antennas")
    sigma2 = np.asarray(noise_variance, dtype=REAL_DTYPE)
    if sigma2.shape == batch:
        sigma2 = sigma2[..., None]
    elif sigma2.shape != (*batch, num_sc):
        raise ValueError(
            "noise_variance must carry one value per batch element or one "
            f"per subcarrier (expected shape {batch} or {(*batch, num_sc)}, "
            f"got {sigma2.shape})"
        )
    if sigma2.size and sigma2.min() < 0:
        raise ValueError("noise_variance must be >= 0")

    # Entry-major working layout: the matrix indices lead and the batch sits
    # next to the subcarriers, so each matrix entry is one contiguous run.
    # One workspace a call (fresh megabyte-sized temporaries page-fault):
    # the augmented [G + λI | Hᴴ], eliminated in place; a scratch of the same
    # shape that every product is written into; and H.
    n, cols = len(batch), num_layers + num_antennas
    work = np.empty(
        (num_layers, 2 * cols + num_antennas, *batch, num_sc), COMPLEX_DTYPE
    )
    system, scratch, h = work[:, :cols], work[:, cols : 2 * cols], work[:, 2 * cols :]
    gram, solution = system[:, :num_layers], system[:, num_layers:]
    product = scratch[:, num_layers:]  # (layers, antennas, ..., subcarriers)
    weights = np.empty((*batch, num_layers, num_antennas, num_sc), COMPLEX_DTYPE)
    noise_after = np.empty((*batch, num_layers, num_sc), REAL_DTYPE)
    with np.errstate(all="ignore"):
        np.conjugate(channel.transpose(n + 1, n, *range(n), n + 2), out=solution)
        np.conjugate(solution, out=h)
        np.multiply(solution[:, None, 0], h[None, :, 0], out=gram)
        for a in range(1, num_antennas):
            gram += np.multiply(
                solution[:, None, a], h[None, :, a], out=scratch[:, :num_layers]
            )
        regularizer = sigma2 + 1e-12
        for k in range(num_layers):
            gram[k, k] += regularizer
        # Forward elimination: scale row k by its (real) pivot, then clear
        # column k below it. Back substitution: unit upper triangle.
        for k in range(num_layers):
            row = system[k, k + 1 :]
            row *= np.reciprocal(system[k, k].real)
            system[k + 1 :, k + 1 :] -= np.multiply(
                system[k + 1 :, k, None], row, out=scratch[k + 1 :, k + 1 :]
            )
        for k in range(num_layers - 1, 0, -1):
            solution[:k] -= np.multiply(gram[:k, k, None], solution[k], out=product[:k])
        gain = np.multiply(solution, h, out=product)  # bias removal (docstring)
        bias = gain[:, 0]
        for a in range(1, num_antennas):
            bias += gain[:, a]
        np.copyto(bias, 1.0, where=np.abs(bias) <= 1e-9)
        unbiased = weights.transpose(n, n + 1, *range(n), n + 2)
        np.multiply(solution, np.reciprocal(bias)[:, None], out=unbiased)
        # σ²·Σ_a |W|² from the interleaved re/im parts: squares summed over
        # the antennas first, then re² + im².
        squares = np.square(unbiased.view(REAL_DTYPE), out=product.view(REAL_DTYPE))
        power = squares[:, 0]
        for a in range(1, num_antennas):
            power += squares[:, a]
        per_layer = noise_after.transpose(n, *range(n), n + 1)
        np.add(power[..., 0::2], power[..., 1::2], out=per_layer)
        per_layer *= sigma2
    return weights, noise_after


def combine_antennas(received: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Merge per-antenna data into per-layer estimates.

    Parameters
    ----------
    received:
        Received grid slice, shape ``(antennas, symbols, subcarriers)``.
    weights:
        Combiner weights, shape ``(layers, antennas, subcarriers)``.

    Returns
    -------
    numpy.ndarray
        Layer estimates, shape ``(layers, symbols, subcarriers)``.
    """
    received = np.asarray(received, dtype=np.complex128)
    weights = np.asarray(weights, dtype=np.complex128)
    if received.shape[0] != weights.shape[1]:
        raise ValueError("antenna count mismatch between data and weights")
    if received.shape[2] != weights.shape[2]:
        raise ValueError("subcarrier count mismatch between data and weights")
    return np.einsum("lak,ask->lsk", weights, received)
