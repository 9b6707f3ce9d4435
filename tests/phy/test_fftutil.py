"""Tests for FFT helpers and time-domain windowing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.fftutil import (
    fft_radix2,
    ifft_radix2,
    is_power_of_two,
    wraparound_window,
)


class TestPowerOfTwo:
    def test_is_power_of_two(self):
        assert all(is_power_of_two(1 << k) for k in range(16))
        assert not any(is_power_of_two(n) for n in (0, 3, 5, 6, 7, 9, 100, -4))


class TestRadix2Fft:
    @pytest.mark.parametrize("n", [2, 4, 8, 64, 256])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(fft_radix2(x), np.fft.fft(x), atol=1e-9)

    @pytest.mark.parametrize("n", [2, 16, 128])
    def test_ifft_inverts_fft(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(ifft_radix2(fft_radix2(x)), x, atol=1e-9)

    def test_impulse_gives_flat_spectrum(self):
        x = np.zeros(16, dtype=complex)
        x[0] = 1.0
        assert np.allclose(fft_radix2(x), np.ones(16))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fft_radix2(np.ones(12))

    def test_parseval(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        X = fft_radix2(x)
        assert np.sum(np.abs(x) ** 2) == pytest.approx(np.sum(np.abs(X) ** 2) / 64)


class TestWindow:
    def test_rectangular_window(self):
        w = wraparound_window(16, 4, 0)
        assert w[:4].tolist() == [1.0] * 4
        assert w[4:].tolist() == [0.0] * 12

    def test_full_keep(self):
        assert np.allclose(wraparound_window(8, 8, 0), 1.0)

    @pytest.mark.parametrize("keep", [0, 17])
    def test_rejects_bad_keep(self, keep):
        with pytest.raises(ValueError):
            wraparound_window(16, keep, 0)


@given(exp=st.integers(min_value=1, max_value=9), seed=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_property_radix2_linearity(exp, seed):
    """FFT(a*x + y) == a*FFT(x) + FFT(y)."""
    n = 1 << exp
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = complex(rng.standard_normal(), rng.standard_normal())
    lhs = fft_radix2(a * x + y)
    rhs = a * fft_radix2(x) + fft_radix2(y)
    assert np.allclose(lhs, rhs, atol=1e-8)
