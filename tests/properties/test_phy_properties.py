"""Property-based PHY invariants (slow tier, hypothesis).

Five families of properties the fixed-seed tiers can only spot-check:

* interleaver and scrambling are exact inverses for arbitrary payloads;
* CRC24A detects *every* single-bit flip (minimum distance >= 2 — the
  linearity the vectorized CRC implementation relies on);
* max-log soft demapping agrees in sign with minimum-distance hard
  demodulation at high SNR for arbitrary bit patterns;
* batched kernels match their scalar twins on arbitrary shapes;
* the MMSE combiner is batch-independent and agrees with a LAPACK solve.

The hypothesis profile is pinned in ``tests/conftest.py`` (no deadline,
derandomized) so CI runs are reproducible.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
import reference_kernels as ref  # noqa: E402
from hypothesis import given, strategies as st  # noqa: E402

from repro.phy.crc import CRC24A, crc_attach, crc_check  # noqa: E402
from repro.phy.interleaver import (  # noqa: E402
    deinterleave,
    deinterleave_rows,
    interleave,
)
from repro.phy.modulation import modulate, soft_demap  # noqa: E402
from repro.phy.params import ALL_MODULATIONS, Modulation  # noqa: E402
from repro.phy.scrambling import (  # noqa: E402
    descramble_llrs,
    gold_sequence,
    scramble_bits,
)

pytestmark = pytest.mark.slow

MODULATION = st.sampled_from(list(ALL_MODULATIONS))


@given(st.integers(1, 2000), st.integers(0, 2**32 - 1))
def test_interleave_roundtrip(length, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(length)
    assert np.array_equal(deinterleave(interleave(values)), values)


@given(st.integers(1, 500), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_deinterleave_rows_matches_scalar(length, rows, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, length))
    batched = deinterleave_rows(values)
    for row in range(rows):
        assert np.array_equal(batched[row], deinterleave(values[row]))


@given(st.integers(1, 2000), st.integers(0, 2**31 - 1), st.integers(0, 2**32 - 1))
def test_scrambling_roundtrip(length, c_init, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, length)
    scrambled = scramble_bits(bits, c_init)
    # Receiver-side: descrambling ideal LLRs of the scrambled bits must
    # recover hard decisions equal to the original bits.
    llrs = 1.0 - 2.0 * scrambled
    assert np.array_equal(descramble_llrs(llrs, c_init) < 0, bits)
    # Transmitter-side: scrambling twice with the same sequence is identity.
    assert np.array_equal(scramble_bits(scrambled, c_init), bits)


@given(st.integers(0, 2**31 - 1), st.integers(0, 500))
def test_gold_sequence_is_binary_and_deterministic(c_init, length):
    a = gold_sequence(c_init, length)
    b = gold_sequence(c_init, length)
    assert np.array_equal(a, b)
    assert a.size == length
    assert np.all((a == 0) | (a == 1))


@given(st.integers(1, 600), st.integers(0, 2**32 - 1), st.data())
def test_crc24a_detects_any_single_bit_flip(length, seed, data):
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 2, length)
    block = crc_attach(payload, CRC24A)
    assert crc_check(block, CRC24A)
    flip = data.draw(st.integers(0, block.size - 1), label="flip position")
    corrupted = block.copy()
    corrupted[flip] ^= 1
    assert not crc_check(corrupted, CRC24A)


@given(MODULATION, st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_soft_demap_sign_agrees_with_hard_demod_at_high_snr(mod, nsym, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, nsym * mod.bits_per_symbol)
    clean = modulate(bits, mod)
    noisy = clean + 0.01 * (
        rng.standard_normal(nsym) + 1j * rng.standard_normal(nsym)
    )
    soft = soft_demap(noisy, mod, noise_variance=0.02) < 0
    # Minimum-distance bits by exhaustive search (tests/reference).
    hard = ref.max_log_llrs(noisy, mod.bits_per_symbol, 1.0) < 0
    assert np.array_equal(soft, hard)
    assert np.array_equal(soft, bits)


@given(
    MODULATION,
    st.integers(1, 64),
    st.integers(1, 5),
    st.floats(1e-6, 10.0),
    st.integers(0, 2**32 - 1),
)
def test_batched_soft_demap_matches_scalar(mod, nsym, batch, noise, seed):
    from repro.phy.batched import batched_soft_demap

    rng = np.random.default_rng(seed)
    symbols = rng.standard_normal((batch, nsym)) + 1j * rng.standard_normal(
        (batch, nsym)
    )
    noise_rows = np.full((batch, nsym), noise)
    got = batched_soft_demap(symbols, mod, noise_rows)
    for row in range(batch):
        want = soft_demap(symbols[row], mod, noise_rows[row])
        assert np.array_equal(got[row], want)


@given(
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(2, 40),  # an allocation is whole PRBs; see the kernel docstring
    st.integers(1, 4),
    st.floats(0.01, 10.0),
    st.integers(0, 2**32 - 1),
)
def test_mmse_combiner_batch_independent_and_matches_lapack(
    layers, spare_antennas, num_sc, users, noise, seed
):
    """Any shape, any subcarrier count (SIMD tails included): a batch
    element equals the same element alone bit for bit, and the unpivoted
    elimination agrees with a partial-pivot LAPACK solve to 1e-11."""
    from repro.phy.equalizer import mmse_combiner

    antennas = min(4, layers + spare_antennas)
    rng = np.random.default_rng(seed)
    shape = (users, 2, antennas, layers, num_sc)
    channel = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise_variance = rng.uniform(0.01, noise, (users, 2))
    weights, noise_after = mmse_combiner(channel, noise_variance)
    for user in range(users):
        for slot in range(2):
            alone_w, alone_n = mmse_combiner(
                channel[user, slot], noise_variance[user, slot]
            )
            assert np.array_equal(alone_w, weights[user, slot])
            assert np.array_equal(alone_n, noise_after[user, slot])
    # Oracle: solve per subcarrier, divide by the complex gain.
    h = np.moveaxis(channel, -1, -3)
    hh = np.conj(np.swapaxes(h, -1, -2))
    reg = hh @ h + (noise_variance[..., None, None, None] + 1e-12) * np.eye(layers)
    want = np.moveaxis(np.linalg.solve(reg, hh), -3, -1)
    want = want / np.einsum("...lak,...alk->...lk", want, channel)[..., :, None, :]
    error = np.linalg.norm(weights - want, axis=(-3, -2))
    assert np.all(error <= 1e-11 * np.linalg.norm(want, axis=(-3, -2)))
