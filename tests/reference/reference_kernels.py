"""Textbook versions of receiver kernels that share no code with ``src/``.

Every function here is written from the defining formula (TS 36.211 /
36.212 or the DFT sum) with loops and explicit matrices, imports nothing
from ``repro`` and is deliberately slow. ``test_reference_kernels.py``
compares the kernels in ``repro.phy`` with them: it is the one net that
catches a kernel that is wrong in both backends *and* in the golden
vectors, which all come from the same code.
"""

import numpy as np

#: gCRC24A of TS 36.212 §5.1.1: D^24 + D^23 + D^18 + D^17 + D^14 + D^11 +
#: D^10 + D^7 + D^6 + D^5 + D^4 + D^3 + D + 1, leading term first.
_CRC24A_POWERS = (24, 23, 18, 17, 14, 11, 10, 7, 6, 5, 4, 3, 1, 0)
CRC24A_GENERATOR = np.array(
    [power in _CRC24A_POWERS for power in range(24, -1, -1)], dtype=np.uint8
)


def _divide_by_crc24a(coefficients):
    """Long division over GF(2), as on paper: wherever the leading
    coefficient is set, subtract (XOR) the generator aligned to it.
    Returns the 24-coefficient remainder."""
    work = np.array(coefficients, dtype=np.uint8)
    for lead in range(work.size - 24):
        if work[lead]:
            work[lead : lead + 25] ^= CRC24A_GENERATOR
    return work[-24:]


def crc24a_parity(bits):
    """The 24 parity bits: the remainder of ``bits(D) * D^24``."""
    return _divide_by_crc24a(np.concatenate([np.asarray(bits), np.zeros(24, int)]))


def crc24a_passes(bits_with_crc):
    """A codeword passes iff the generator divides it."""
    return not _divide_by_crc24a(bits_with_crc).any()


def qam_point(bits):
    """One TS 36.211 §7.1 constellation point from its 2, 4 or 6 bits."""
    sign = [1 - 2 * int(b) for b in bits]
    if len(bits) == 2:
        i, q, norm = sign[0], sign[1], 2.0
    elif len(bits) == 4:
        i = sign[0] * (2 - sign[2])
        q = sign[1] * (2 - sign[3])
        norm = 10.0
    elif len(bits) == 6:
        i = sign[0] * (4 - sign[2] * (2 - sign[4]))
        q = sign[1] * (4 - sign[3] * (2 - sign[5]))
        norm = 42.0
    else:
        raise ValueError("2, 4 or 6 bits per symbol")
    return complex(i, q) / np.sqrt(norm)


def max_log_llrs(symbols, bits_per_symbol, noise_variance):
    """Max-log-MAP LLRs by exhaustive search over all ``2^bps`` points.

    ``LLR_k = (min_{p: b_k=1} |s-p|^2 - min_{p: b_k=0} |s-p|^2) / noise``,
    positive when bit 0 is the likelier one; one row of ``bps`` values per
    symbol, flattened in transmission order.
    """
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    noise = np.broadcast_to(np.asarray(noise_variance, dtype=float), symbols.shape)
    labels = [
        [(label >> (bits_per_symbol - 1 - k)) & 1 for k in range(bits_per_symbol)]
        for label in range(1 << bits_per_symbol)
    ]
    points = np.array([qam_point(bits) for bits in labels])
    distance = np.abs(symbols[:, None] - points[None, :]) ** 2
    llrs = np.empty((symbols.size, bits_per_symbol))
    for k in range(bits_per_symbol):
        is_one = np.array([bits[k] == 1 for bits in labels])
        nearest_one = distance[:, is_one].min(axis=1)
        nearest_zero = distance[:, ~is_one].min(axis=1)
        llrs[:, k] = (nearest_one - nearest_zero) / noise
    return llrs.reshape(-1)


def dft_matrix(n, inverse=False):
    """``W[m, k] = exp(-+2*pi*i*m*k/n)`` (``/n`` for the inverse).

    The exponent is reduced modulo ``n`` first so the twiddles stay exact
    to the last bit at large ``m*k``.
    """
    index = np.arange(n)
    turns = np.outer(index, index) % n
    sign = 1.0 if inverse else -1.0
    matrix = np.exp(sign * 2j * np.pi * turns / n)
    return matrix / n if inverse else matrix


def dft(x, inverse=False):
    """(I)DFT along the last axis as a matrix product."""
    x = np.asarray(x, dtype=np.complex128)
    return x @ dft_matrix(x.shape[-1], inverse)


def dmrs(num_subcarriers, layer):
    """One layer's uplink reference sequence over ``num_subcarriers``.

    TS 36.211 §5.5 as the receiver builds it: the root-1 Zadoff–Chu
    sequence ``x(m) = exp(-i*pi*m*(m+1)/N_zc)`` of the largest prime length
    ``N_zc`` below the width, cyclically extended to the width, times the
    phase ramp ``exp(2*pi*i*c*k/12)`` of cyclic shift ``c = 3*layer mod 12``
    (the layers spread evenly over the 12 shifts). Both exponents are
    reduced modulo their period first, so each phase is exact to the last
    bit.
    """
    n_zc = max(
        p for p in range(2, num_subcarriers)
        if all(p % d for d in range(2, int(p**0.5) + 1))
    )
    shift = 3 * layer % 12
    row = np.empty(num_subcarriers, dtype=np.complex128)
    for k in range(num_subcarriers):
        m = k % n_zc
        chu = np.exp(-1j * np.pi * (m * (m + 1) % (2 * n_zc)) / n_zc)
        row[k] = chu * np.exp(2j * np.pi * (shift * k % 12) / 12)
    return row


def chest_window(n):
    """The estimator's time-domain window over an ``n``-sample IFFT: ones
    on the first ``n/8`` samples (at least one), the channel's positive
    delays, and on the last ``n/16``, its wrapped negative delays; zeros
    between, where the other layers' cyclic shifts put their responses
    (``n/4`` apart)."""
    window = np.zeros(n)
    window[: max(1, round(n / 8))] = 1.0
    back = round(n / 16)
    if back:
        window[n - back :] = 1.0
    return window


def mmse_weights(channel, noise_variance):
    """Unbiased MMSE combiner, one LAPACK solve per subcarrier.

    ``channel`` is ``(antennas, layers, subcarriers)``, ``noise_variance``
    a scalar or one value per subcarrier. Per subcarrier ``k``, with ``H``
    its ``antennas x layers`` channel: ``W = (HᴴH + (σ² + 1e-12)·I)⁻¹ Hᴴ``,
    each layer's row divided by its gain ``Σ_a W[l, a]·H[a, l]`` (bias
    removal), and the post-combining noise ``σ²·Σ_a |W[l, a]|²``. Returns
    ``(layers, antennas, subcarriers)`` and ``(layers, subcarriers)``.
    """
    channel = np.asarray(channel, dtype=np.complex128)
    antennas, layers, subcarriers = channel.shape
    sigma2 = np.broadcast_to(np.asarray(noise_variance, dtype=float), (subcarriers,))
    weights = np.empty((layers, antennas, subcarriers), dtype=np.complex128)
    noise_after = np.empty((layers, subcarriers))
    for k in range(subcarriers):
        h = channel[:, :, k]
        gram = h.conj().T @ h + (sigma2[k] + 1e-12) * np.eye(layers)
        w = np.linalg.solve(gram, h.conj().T)
        for layer in range(layers):
            w[layer] /= w[layer] @ h[:, layer]
        weights[:, :, k] = w
        noise_after[:, k] = sigma2[k] * (np.abs(w) ** 2).sum(axis=1)
    return weights, noise_after


def bit_reversed_columns(num_columns=32):
    """The TS 36.212 Table 5.1.4-1 inter-column permutation: column ``j``
    of the permuted matrix is column bit-reverse(``j``) of the original."""
    width = num_columns.bit_length() - 1
    return [
        int(format(column, f"0{width}b")[::-1], 2) for column in range(num_columns)
    ]


def interleaver_read_order(length, num_columns=32):
    """Input position of each output bit of the block interleaver.

    Write ``length`` bits row by row into a ``rows x 32`` matrix (padding
    the last row), permute the columns, read column by column and drop the
    padding: output ``i`` is input ``read_order[i]``.
    """
    rows = -(-length // num_columns)
    order = []
    for column in bit_reversed_columns(num_columns):
        for row in range(rows):
            position = row * num_columns + column
            if position < length:
                order.append(position)
    return order


def deinterleaver_gather(length):
    """``q`` with ``deinterleaved[i] = interleaved[q[i]]``."""
    gather = [0] * length
    for output, source in enumerate(interleaver_read_order(length)):
        gather[source] = output
    return gather
