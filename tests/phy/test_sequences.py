"""Tests for Zadoff-Chu / DMRS reference sequences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.sequences import (
    base_sequence,
    cyclic_shift,
    dmrs_for_layer,
    largest_prime_below,
    zadoff_chu,
)


class TestPrimeSearch:
    @pytest.mark.parametrize(
        "n,expected", [(3, 2), (4, 3), (12, 11), (144, 139), (1200, 1193)]
    )
    def test_known_primes(self, n, expected):
        assert largest_prime_below(n) == expected

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            largest_prime_below(2)


class TestZadoffChu:
    @pytest.mark.parametrize("root,length", [(1, 11), (3, 31), (25, 139)])
    def test_constant_amplitude(self, root, length):
        zc = zadoff_chu(root, length)
        assert np.allclose(np.abs(zc), 1.0)

    @pytest.mark.parametrize("root,length", [(1, 11), (5, 31), (25, 139)])
    def test_zero_autocorrelation(self, root, length):
        """Cyclic autocorrelation is zero at all non-zero lags (CAZAC)."""
        zc = zadoff_chu(root, length)
        for lag in (1, 2, length // 2, length - 1):
            corr = np.vdot(zc, np.roll(zc, lag))
            assert abs(corr) < 1e-9 * length

    def test_different_roots_low_cross_correlation(self):
        length = 139
        a = zadoff_chu(1, length)
        b = zadoff_chu(2, length)
        corr = abs(np.vdot(a, b)) / length
        assert corr < 0.2  # prime-length ZC cross-correlation is 1/sqrt(N)

    def test_rejects_composite_length(self):
        with pytest.raises(ValueError):
            zadoff_chu(1, 12)

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError):
            zadoff_chu(0, 11)
        with pytest.raises(ValueError):
            zadoff_chu(11, 11)


class TestBaseSequence:
    @pytest.mark.parametrize("num_sc", [12, 24, 144, 1200])
    def test_length_and_amplitude(self, num_sc):
        seq = base_sequence(num_sc)
        assert seq.size == num_sc
        assert np.allclose(np.abs(seq), 1.0)

    def test_rejects_sub_prb_allocations(self):
        with pytest.raises(ValueError):
            base_sequence(11)

    def test_groups_give_different_sequences(self):
        a = base_sequence(144, group=0)
        b = base_sequence(144, group=1)
        assert not np.allclose(a, b)


class TestCyclicShift:
    def test_shift_zero_is_identity(self):
        seq = base_sequence(48)
        assert np.allclose(cyclic_shift(seq, 0), seq)

    def test_shift_preserves_amplitude(self):
        seq = base_sequence(48)
        assert np.allclose(np.abs(cyclic_shift(seq, 5)), 1.0)

    def test_shift_is_time_domain_rotation(self):
        """A cyclic shift of N/12 samples in the time domain."""
        n = 48
        seq = base_sequence(n)
        shifted = cyclic_shift(seq, 3)
        t = np.fft.ifft(seq)
        t_shifted = np.fft.ifft(shifted)
        # Phase ramp exp(j*2*pi*3*n/12) advances the impulse by N*3/12 samples.
        assert np.allclose(np.roll(t, -(n * 3 // 12)), t_shifted, atol=1e-9)


class TestDmrsLayers:
    def test_layers_are_near_orthogonal(self):
        n = 144
        sequences = [dmrs_for_layer(n, layer) for layer in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                corr = abs(np.vdot(sequences[i], sequences[j])) / n
                assert corr < 1e-9, f"layers {i},{j} correlate: {corr}"

    def test_layer_zero_is_base_sequence(self):
        assert np.allclose(dmrs_for_layer(48, 0), base_sequence(48))

    def test_rejects_negative_layer(self):
        with pytest.raises(ValueError):
            dmrs_for_layer(48, -1)


@given(
    num_prb=st.integers(min_value=1, max_value=100),
    layer=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=30, deadline=None)
def test_property_dmrs_unit_amplitude(num_prb, layer):
    seq = dmrs_for_layer(num_prb * 12, layer)
    assert np.allclose(np.abs(seq), 1.0)
