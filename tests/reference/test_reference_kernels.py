"""``repro.phy`` kernels against textbook versions that share no code with
``src/`` (``reference_kernels.py``), on the shapes of the cross-backend
differential matrix (``tests/differential/test_backends.py``): bits must
agree exactly, floats to a tolerance stated from the arithmetic.

The whole ``process_user`` chain is not covered yet (ROADMAP item 4).
"""

import numpy as np
import pytest
import reference_kernels as ref

from repro.phy.batched import batched_chest, batched_combine_symbols
from repro.phy.chest import dmrs_bank, window_lengths
from repro.phy.crc import crc_attach, crc_check
from repro.phy.equalizer import mmse_combiner
from repro.phy.fftutil import wraparound_window
from repro.phy.interleaver import deinterleave, deinterleave_indices, interleave
from repro.phy.modulation import soft_demap
from repro.phy.params import Modulation

# The differential matrix: one user per (layers, modulation, prb) point.
LAYER_COUNTS = (1, 2, 4)
MODULATIONS = (Modulation.QPSK, Modulation.QAM16, Modulation.QAM64)
PRB_COUNTS = (4, 16, 40)
DATA_SYMBOLS = 12  # per subframe, after the two reference symbols
EPS = np.finfo(np.float64).eps


def _subcarriers(prb):
    return 12 * prb


def _coded_bits(prb, layers, modulation):
    return _subcarriers(prb) * DATA_SYMBOLS * layers * modulation.bits_per_symbol


#: Distinct coded-stream lengths of the matrix (many points share one).
STREAM_LENGTHS = sorted(
    {
        _coded_bits(prb, layers, modulation)
        for prb in PRB_COUNTS
        for layers in LAYER_COUNTS
        for modulation in MODULATIONS
    }
)


class TestCrc24aByLongDivision:
    @pytest.mark.parametrize("coded", STREAM_LENGTHS)
    def test_attach_and_check_agree_bit_for_bit(self, coded):
        rng = np.random.default_rng(coded)
        payload = rng.integers(0, 2, size=coded - 24)
        codeword = crc_attach(payload)
        assert np.array_equal(codeword[:-24], payload)
        assert np.array_equal(codeword[-24:], ref.crc24a_parity(payload))
        assert crc_check(codeword) and ref.crc24a_passes(codeword)
        # One flipped bit (payload or parity) fails both checks.
        for position in (0, int(rng.integers(coded)), coded - 1):
            corrupt = codeword.copy()
            corrupt[position] ^= 1
            assert not crc_check(corrupt) and not ref.crc24a_passes(corrupt)

    def test_short_and_degenerate_payloads(self):
        for payload in ([0], [1], [0] * 40, [1] * 40, [1, 0, 1, 1, 0, 0, 1]):
            expected = ref.crc24a_parity(payload)
            assert np.array_equal(crc_attach(np.array(payload))[-24:], expected)


class TestMaxLogDemapByExhaustiveSearch:
    #: No constellation point lies further out (64-QAM corner: sqrt(98/42)).
    MAX_POINT = 1.6

    @pytest.mark.parametrize("modulation", MODULATIONS, ids=lambda m: m.value)
    @pytest.mark.parametrize("prb", PRB_COUNTS)
    def test_llrs_match_on_noisy_symbols(self, modulation, prb):
        rng = np.random.default_rng((prb, modulation.bits_per_symbol))
        count = _subcarriers(prb) * DATA_SYMBOLS * max(LAYER_COUNTS)
        # Spread like a noisy unit-energy constellation, tails well outside.
        symbols = (rng.standard_normal(count) + 1j * rng.standard_normal(count)) * 0.9
        noise = rng.uniform(0.01, 1.0, size=count)
        got = soft_demap(symbols, modulation, noise)
        expected = ref.max_log_llrs(symbols, modulation.bits_per_symbol, noise)
        assert got.shape == expected.shape
        # The kernel takes per-axis minima, the reference minima of
        # dI^2 + dQ^2 over whole points: the numerators differ by a few
        # roundings of squared distances, none above max_d2.
        max_d2 = (np.abs(symbols).max() + self.MAX_POINT) ** 2
        tolerance = 4 * EPS * max_d2 / np.repeat(noise, modulation.bits_per_symbol)
        assert np.all(np.abs(got - expected) <= tolerance)

    @pytest.mark.parametrize("modulation", MODULATIONS, ids=lambda m: m.value)
    def test_noiseless_points_decide_their_own_bits(self, modulation):
        bps = modulation.bits_per_symbol
        labels = np.arange(1 << bps)
        bits = (labels[:, None] >> np.arange(bps - 1, -1, -1)) & 1
        points = np.array([ref.qam_point(row) for row in bits])
        llrs = soft_demap(points, modulation, 0.1).reshape(-1, bps)
        assert np.array_equal(llrs < 0, bits.astype(bool))


class TestFftSitesByExplicitMatrix:
    """The three transform sites of ``phy/batched.py``: the channel
    estimator's IFFT -> window -> FFT and the SC-FDMA despreading IFFT.
    An ``n``-term sum of terms bounded by ``peak`` rounds to within
    ``n * eps * peak`` whatever the order, which bounds both sides."""

    @pytest.mark.parametrize("prb", PRB_COUNTS)
    def test_despreading_ifft(self, prb):
        n = _subcarriers(prb)
        rng = np.random.default_rng(prb)
        shape = (2, 1, DATA_SYMBOLS // 2, n)  # (slots, antennas, symbols, sc)
        received = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        weights = np.ones((2, 1, 1, n), dtype=complex)  # one layer, pass-through
        got = batched_combine_symbols(received, weights)
        expected = ref.dft(received, inverse=True) * np.sqrt(n)
        assert got.shape == expected.shape
        peak = np.abs(received).max() / np.sqrt(n)
        assert np.abs(got - expected).max() <= 4 * n * EPS * peak

    @pytest.mark.parametrize("layers", LAYER_COUNTS)
    @pytest.mark.parametrize("prb", PRB_COUNTS)
    def test_channel_estimator_transform_pair(self, prb, layers):
        n = _subcarriers(prb)
        rng = np.random.default_rng((prb, layers))
        shape = (2, 4, n)  # (slots, antennas, sc)
        refs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        channel, _noise = batched_chest(refs, layers)
        # Matched filter and window are the estimator's own; only the two
        # transforms around the window are replaced.
        matched = refs[:, :, None, :] * dmrs_bank(n)[:layers]
        window = wraparound_window(n, *window_lengths(n))
        expected = ref.dft(ref.dft(matched, inverse=True) * window)
        assert channel.shape == expected.shape == (2, 4, layers, n)
        peak = np.abs(matched).max()
        assert np.abs(channel - expected).max() <= 8 * n * EPS * peak


class TestMmseCombinerByLapackSolve:
    """``mmse_combiner`` (elimination without pivoting, no LAPACK) against
    one ``np.linalg.solve`` per subcarrier. Both solvers are backward
    stable on the Hermitian positive-definite ``HᴴH + σ²I``, so each is
    within a small multiple of ``cond · eps`` of the true weights; 16 covers
    the antenna sums and the bias division on top (measured: <= 5)."""

    ANTENNAS = 4
    #: The differential matrix's layer counts, and the 3 of its mixed row.
    LAYERS = (1, 2, 3, 4)

    @staticmethod
    def _channel(rng, *shape):
        real, imag = rng.standard_normal((2, *shape))
        return (real + 1j * imag) / np.sqrt(2)

    @classmethod
    def _assert_agrees(cls, channel, sigma2, weights, noise_after):
        layers, n = channel.shape[-2:]
        expected_w, expected_n = ref.mmse_weights(channel, sigma2)
        assert weights.shape == expected_w.shape == (layers, cls.ANTENNAS, n)
        assert noise_after.shape == expected_n.shape == (layers, n)
        sigma2 = np.broadcast_to(sigma2, (n,))
        for k in range(n):
            h = channel[:, :, k]
            gram = h.conj().T @ h + (sigma2[k] + 1e-12) * np.eye(layers)
            bound = 16 * np.linalg.cond(gram) * EPS
            for got, expected in ((weights, expected_w), (noise_after, expected_n)):
                error = np.abs(got[..., k] - expected[..., k]).max()
                assert error <= bound * np.abs(expected[..., k]).max()

    @pytest.mark.parametrize("layers", LAYERS)
    @pytest.mark.parametrize("prb", PRB_COUNTS)
    def test_scalar_noise(self, prb, layers):
        rng = np.random.default_rng((prb, layers))
        channel = self._channel(rng, self.ANTENNAS, layers, _subcarriers(prb))
        self._assert_agrees(channel, 0.05, *mmse_combiner(channel, 0.05))

    @pytest.mark.parametrize("layers", LAYERS)
    def test_ragged_noise_per_subcarrier(self, layers):
        """What the batched chain passes: ``(slots, antennas, layers, ΣK)``,
        users of every width end to end, each with its own σ² per slot."""
        rng = np.random.default_rng(layers)
        widths = [_subcarriers(prb) for prb in PRB_COUNTS]
        channel = self._channel(rng, 2, self.ANTENNAS, layers, sum(widths))
        sigma2 = np.repeat(rng.uniform(0.01, 0.5, (2, len(widths))), widths, axis=1)
        weights, noise_after = mmse_combiner(channel, sigma2)
        for slot in range(2):
            self._assert_agrees(
                channel[slot], sigma2[slot], weights[slot], noise_after[slot]
            )


class TestDeinterleaverByIndexFormula:
    @pytest.mark.parametrize("length", [1, 31, 32, 33, 1000, *STREAM_LENGTHS])
    def test_gather_index_and_round_trip(self, length):
        gather = ref.deinterleaver_gather(length)
        assert sorted(gather) == list(range(length))
        assert np.array_equal(deinterleave_indices(length), gather)
        values = np.random.default_rng(length).standard_normal(length)
        order = ref.interleaver_read_order(length)
        assert np.array_equal(interleave(values), values[order])
        assert np.array_equal(deinterleave(values), values[gather])

    def test_column_permutation_is_the_36212_table(self):
        assert ref.bit_reversed_columns()[:8] == [0, 16, 8, 24, 4, 20, 12, 28]
