"""Tests for modulation mapping, hard demapping, and soft demapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy import modulation as modulation_module
from repro.phy.modulation import (
    bits_to_symbols,
    constellation,
    demodulate_hard,
    llrs_to_bits,
    modulate,
    soft_demap,
    symbols_to_bits,
)
from repro.phy.params import ALL_MODULATIONS, Modulation

MODS = list(ALL_MODULATIONS)


@pytest.mark.parametrize("mod", MODS)
class TestConstellation:
    def test_unit_average_energy(self, mod):
        points = constellation(mod)
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_all_points_distinct(self, mod):
        points = constellation(mod)
        assert len(set(np.round(points, 12))) == points.size

    def test_size(self, mod):
        assert constellation(mod).size == mod.constellation_order

    def test_gray_labelling_neighbours_differ_by_one_bit(self, mod):
        """Nearest-neighbour constellation points differ in exactly one bit."""
        points = constellation(mod)
        bps = mod.bits_per_symbol
        min_dist = np.inf
        for i in range(points.size):
            d = np.abs(points - points[i])
            d[i] = np.inf
            min_dist = min(min_dist, d.min())
        for i in range(points.size):
            for j in range(points.size):
                if i < j and np.abs(points[i] - points[j]) < min_dist * 1.001:
                    hamming = bin(i ^ j).count("1")
                    assert hamming == 1, f"labels {i}, {j} differ in {hamming} bits"

    def test_symmetry(self, mod):
        """Constellations are symmetric under negation."""
        points = constellation(mod)
        negated = set(np.round(-points, 12))
        assert negated == set(np.round(points, 12))


@pytest.mark.parametrize("mod", MODS)
class TestModulateDemodulate:
    def test_roundtrip_exhaustive_labels(self, mod):
        bps = mod.bits_per_symbol
        labels = np.arange(mod.constellation_order)
        bits = symbols_to_bits(labels, mod)
        recovered = demodulate_hard(modulate(bits, mod), mod)
        assert np.array_equal(recovered, bits)

    def test_roundtrip_random(self, mod):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=120 * mod.bits_per_symbol)
        assert np.array_equal(demodulate_hard(modulate(bits, mod), mod), bits)

    def test_roundtrip_with_small_noise(self, mod):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=600 * mod.bits_per_symbol)
        symbols = modulate(bits, mod)
        noisy = symbols + 0.01 * (
            rng.standard_normal(symbols.size) + 1j * rng.standard_normal(symbols.size)
        )
        assert np.array_equal(demodulate_hard(noisy, mod), bits)

    def test_rejects_wrong_bit_count(self, mod):
        with pytest.raises(ValueError):
            modulate(np.zeros(mod.bits_per_symbol + 1, dtype=int), mod)

    def test_rejects_non_binary(self, mod):
        with pytest.raises(ValueError):
            modulate(np.full(mod.bits_per_symbol, 2), mod)


class TestBitSymbolConversion:
    def test_bits_to_symbols_msb_first(self):
        assert bits_to_symbols(np.array([1, 0]), Modulation.QPSK).tolist() == [2]
        assert bits_to_symbols(np.array([1, 1, 0, 1]), Modulation.QAM16).tolist() == [13]

    def test_symbols_to_bits_inverse(self):
        labels = np.arange(64)
        bits = symbols_to_bits(labels, Modulation.QAM64)
        assert np.array_equal(bits_to_symbols(bits, Modulation.QAM64), labels)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            bits_to_symbols(np.zeros((2, 2), dtype=int), Modulation.QPSK)


@pytest.mark.parametrize("mod", MODS)
class TestSoftDemap:
    def test_sign_matches_hard_decision_noiseless(self, mod):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=300 * mod.bits_per_symbol)
        llrs = soft_demap(modulate(bits, mod), mod, noise_variance=0.1)
        assert np.array_equal(llrs_to_bits(llrs), bits)

    def test_llr_scales_inversely_with_noise(self, mod):
        bits = np.zeros(mod.bits_per_symbol, dtype=int)
        sym = modulate(bits, mod)
        llr_low = soft_demap(sym, mod, noise_variance=0.01)
        llr_high = soft_demap(sym, mod, noise_variance=1.0)
        nonzero = np.abs(llr_high) > 1e-12
        assert np.all(np.abs(llr_low[nonzero]) > np.abs(llr_high[nonzero]))

    def test_per_symbol_noise_array(self, mod):
        bits = np.tile(np.zeros(mod.bits_per_symbol, dtype=int), 2)
        syms = modulate(bits, mod)
        noise = np.array([0.01, 1.0])
        llrs = soft_demap(syms, mod, noise).reshape(2, -1)
        nonzero = np.abs(llrs[1]) > 1e-12
        assert np.all(np.abs(llrs[0][nonzero]) > np.abs(llrs[1][nonzero]))

    def test_rejects_nonpositive_noise(self, mod):
        with pytest.raises(ValueError):
            soft_demap(np.array([1 + 1j]), mod, noise_variance=0.0)

    def test_output_length(self, mod):
        syms = modulate(np.zeros(5 * mod.bits_per_symbol, dtype=int), mod)
        assert soft_demap(syms, mod).size == 5 * mod.bits_per_symbol


@given(
    data=st.data(),
    mod=st.sampled_from(MODS),
)
@settings(max_examples=40, deadline=None)
def test_property_roundtrip_any_bits(data, mod):
    """Property: modulate → hard demap recovers arbitrary bit strings."""
    n_sym = data.draw(st.integers(min_value=1, max_value=64))
    bits = np.array(
        data.draw(
            st.lists(
                st.integers(0, 1),
                min_size=n_sym * mod.bits_per_symbol,
                max_size=n_sym * mod.bits_per_symbol,
            )
        ),
        dtype=np.int64,
    )
    assert np.array_equal(demodulate_hard(modulate(bits, mod), mod), bits)


@given(mod=st.sampled_from(MODS), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_property_soft_demap_agrees_with_hard_at_high_snr(mod, seed):
    """Property: at mild noise, LLR signs equal minimum-distance decisions."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=32 * mod.bits_per_symbol)
    symbols = modulate(bits, mod)
    noisy = symbols + 0.02 * (
        rng.standard_normal(symbols.size) + 1j * rng.standard_normal(symbols.size)
    )
    hard = demodulate_hard(noisy, mod)
    soft = llrs_to_bits(soft_demap(noisy, mod, noise_variance=0.02))
    assert soft.dtype == np.uint8
    assert np.array_equal(hard, soft)


# ---------------------------------------------------------------- blocking
# soft_demap walks the stream in cache-sized blocks; the straightforward
# whole-stream form below is the reference it must equal bit for bit.
BLOCK = modulation_module._DEMAP_BLOCK
BLOCK_EDGE_SIZES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]


def unblocked_soft_demap(symbols, mod, noise_variance):
    """Max-log-MAP per axis over the whole stream at once."""
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    noise = np.broadcast_to(
        np.asarray(noise_variance, dtype=np.float64), symbols.shape
    )
    half = mod.bits_per_symbol // 2
    levels = (modulation_module._PAM[mod] / modulation_module._NORM[mod])[:, None]
    llrs = np.empty((mod.bits_per_symbol, symbols.size))
    for offset, coords in ((0, symbols.real), (1, symbols.imag)):
        suffix = [(levels - coords[None, :]) ** 2]
        for _ in range(half - 1):
            prev = suffix[-1].reshape(len(suffix[-1]) // 2, 2, symbols.size)
            suffix.append(np.minimum(prev[:, 0], prev[:, 1]))
        for j in range(half):
            d01 = suffix[half - 1 - j].reshape(1 << j, 2, symbols.size).min(axis=0)
            llrs[2 * j + offset] = (d01[1] - d01[0]) / noise
    return llrs.T.reshape(-1)


def _stream(seed, size):
    rng = np.random.default_rng(seed)
    symbols = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return symbols, rng.uniform(0.01, 2.0, size)


@pytest.mark.parametrize("size", BLOCK_EDGE_SIZES)
@pytest.mark.parametrize("mod", MODS)
class TestSoftDemapBlocking:
    def test_scalar_noise_equals_unblocked(self, mod, size):
        symbols, _ = _stream(size, size)
        got = soft_demap(symbols, mod, 0.37)
        assert got.dtype == np.float64
        assert np.array_equal(got, unblocked_soft_demap(symbols, mod, 0.37))

    def test_per_symbol_noise_equals_unblocked(self, mod, size):
        symbols, noise = _stream(size + 1, size)
        assert np.array_equal(
            soft_demap(symbols, mod, noise),
            unblocked_soft_demap(symbols, mod, noise),
        )


@pytest.mark.parametrize("mod", MODS)
class TestSoftDemapCoercion:
    """Off-canonical inputs are coerced up front, as test_dtypes.py pins."""

    def test_non_contiguous_and_2d_input(self, mod):
        symbols, noise = _stream(5, 2 * (BLOCK + 3))
        expected = unblocked_soft_demap(symbols[::2], mod, noise[::2])
        assert np.array_equal(soft_demap(symbols[::2], mod, noise[::2]), expected)
        grid = symbols[::2].reshape(-1, BLOCK + 3)
        assert np.array_equal(soft_demap(grid, mod, noise[::2]), expected)

    def test_complex64_input_computes_in_double(self, mod):
        symbols, noise = _stream(6, BLOCK + 5)
        narrow = symbols.astype(np.complex64)
        got = soft_demap(narrow, mod, noise.astype(np.float32))
        assert got.dtype == np.float64
        assert np.array_equal(
            got,
            unblocked_soft_demap(
                narrow.astype(np.complex128), mod, noise.astype(np.float32)
            ),
        )

    def test_non_finite_symbols_propagate_like_unblocked(self, mod):
        symbols, noise = _stream(7, BLOCK + 2)
        symbols[[0, BLOCK]] = [np.nan, np.inf + 1j]
        with np.errstate(invalid="ignore"):
            got = soft_demap(symbols, mod, noise)
            expected = unblocked_soft_demap(symbols, mod, noise)
        assert np.isnan(got[0])
        assert np.array_equal(got, expected, equal_nan=True)

    def test_nonpositive_noise_in_a_later_block_rejected(self, mod):
        symbols, noise = _stream(8, 2 * BLOCK)
        noise[-1] = 0.0
        with pytest.raises(ValueError, match="positive"):
            soft_demap(symbols, mod, noise)


@given(
    mod=st.sampled_from(MODS),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 2 * BLOCK + 64),
    per_symbol=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_property_blocked_soft_demap_equals_unblocked(mod, seed, size, per_symbol):
    symbols, noise = _stream(seed, size)
    noise_variance = noise if per_symbol else float(noise.sum() + 0.1)
    assert np.array_equal(
        soft_demap(symbols, mod, noise_variance),
        unblocked_soft_demap(symbols, mod, noise_variance),
    )


def test_concurrent_soft_demap_calls_do_not_share_scratch():
    """Two threads demapping different inputs both get the 1-thread answer."""
    import sys
    import threading

    mod = Modulation.QAM64
    inputs = [_stream(seed, 3 * BLOCK + 11) for seed in (21, 22)]
    expected = [soft_demap(symbols, mod, noise) for symbols, noise in inputs]
    mismatches = []
    start = threading.Barrier(len(inputs))

    def worker(index):
        symbols, noise = inputs[index]
        start.wait(timeout=30)
        for _ in range(40):
            if not np.array_equal(soft_demap(symbols, mod, noise), expected[index]):
                mismatches.append(index)

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(len(inputs))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
