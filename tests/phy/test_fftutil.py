"""Tests for the receiver's FFTs and time-domain windowing.

The channel estimator transforms with NumPy's FFT; these check it against
the matrix DFT of ``tests/reference``, which shares no code with either.
"""

import numpy as np
import pytest
import reference_kernels as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.fftutil import wraparound_window


class TestRadix2Fft:
    @pytest.mark.parametrize("n", [2, 4, 8, 64, 256])
    def test_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(np.fft.fft(x), ref.dft(x), atol=1e-9)

    @pytest.mark.parametrize("n", [2, 16, 128])
    def test_ifft_inverts_fft(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.allclose(np.fft.ifft(ref.dft(x)), x, atol=1e-9)
        assert np.allclose(ref.dft(np.fft.fft(x), inverse=True), x, atol=1e-9)

    def test_impulse_gives_flat_spectrum(self):
        x = np.zeros(16, dtype=complex)
        x[0] = 1.0
        assert np.allclose(np.fft.fft(x), np.ones(16))
        assert np.allclose(ref.dft(x), np.ones(16))

    def test_parseval(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        X = np.fft.fft(x)
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
    """FFT(a*x + y) == a*DFT(x) + DFT(y) at every power-of-two length."""
    n = 1 << exp
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = complex(rng.standard_normal(), rng.standard_normal())
    lhs = np.fft.fft(a * x + y)
    rhs = a * ref.dft(x) + ref.dft(y)
    assert np.allclose(lhs, rhs, atol=1e-8)
