"""Coverage for the wraparound window."""

import numpy as np
import pytest

from repro.phy.fftutil import wraparound_window


class TestWraparoundWindow:
    def test_keeps_both_ends(self):
        w = wraparound_window(16, keep_front=4, keep_back=2)
        assert w[:4].tolist() == [1.0] * 4
        assert w[-2:].tolist() == [1.0] * 2
        assert w[4:-2].tolist() == [0.0] * 10

    def test_zero_back_matches_one_sided(self):
        one_sided = np.zeros(16)
        one_sided[:4] = 1.0
        assert np.array_equal(wraparound_window(16, 4, 0), one_sided)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            wraparound_window(8, keep_front=6, keep_back=3)
        with pytest.raises(ValueError):
            wraparound_window(8, keep_front=2, keep_back=-1)

    def test_captures_wrapped_impulse_energy(self):
        """A fractional-delay channel's negative-delay lobe (wrapped to the
        buffer's end) survives the two-sided window."""
        n = 128
        k = np.arange(n)
        freq = np.exp(-2j * np.pi * k * 0.4 / n)  # 0.4-sample delay
        impulse = np.fft.ifft(freq)
        w = wraparound_window(n, keep_front=16, keep_back=8)
        kept = np.sum(np.abs(impulse * w) ** 2) / np.sum(np.abs(impulse) ** 2)
        one_sided = wraparound_window(n, 16, 0)
        kept_one_sided = np.sum(np.abs(impulse * one_sided) ** 2) / np.sum(
            np.abs(impulse) ** 2
        )
        assert kept > 0.98  # sinc sidelobes keep ~1-2 % outside any window
        assert kept > kept_one_sided  # the wrapped lobe is worth keeping

