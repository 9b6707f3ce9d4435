"""The batched chain overwrites only what it builds itself.

``batched_chest`` and ``batched_combine_symbols`` run their FFTs, the
window and the scale with ``out=`` on their own intermediate, and the noise
means are ``np.add.reduce(x, axis=-1) / n``. Three things make that safe,
and each is pinned here: no caller's array is ever written (the pool's
workers pass read-only views of the shared grid), an in-place pocketfft
transform equals the out-of-place one bit for bit, and so does the reduce
to ``ndarray.mean``. The second and third are pins on NumPy: if a release
changes either, these fail before a golden vector does.
"""

import dataclasses

import numpy as np
import pytest

from repro.phy.batched import batched_chest, batched_combine_symbols
from repro.phy.modulation import soft_demap
from repro.phy.params import Modulation
from repro.uplink import SubframeFactory, UserParameters, process_subframes


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _frozen(array):
    """A read-only copy, and the bytes it must still hold afterwards."""
    copy = array.copy()
    copy.setflags(write=False)
    return copy, copy.tobytes()


class TestReadOnlyInputs:
    """Same bits from read-only inputs, and every input byte untouched."""

    @pytest.mark.parametrize("layers", (1, 2, 4))
    def test_batched_chest(self, layers):
        refs = _complex(np.random.default_rng(layers), 3, 2, 4, 48)
        frozen, before = _frozen(refs)
        for got, expected in zip(
            batched_chest(frozen, layers), batched_chest(refs, layers)
        ):
            assert got.tobytes() == expected.tobytes()
        assert frozen.tobytes() == before

    def test_batched_combine_symbols(self):
        rng = np.random.default_rng(0)
        received = _complex(rng, 3, 2, 4, 6, 48)
        weights = _complex(rng, 3, 2, 2, 4, 48)
        frozen_r, before_r = _frozen(received)
        frozen_w, before_w = _frozen(weights)
        got = batched_combine_symbols(frozen_r, frozen_w)
        assert got.tobytes() == batched_combine_symbols(received, weights).tobytes()
        assert (frozen_r.tobytes(), frozen_w.tobytes()) == (before_r, before_w)

    @pytest.mark.parametrize("modulation", list(Modulation), ids=lambda m: m.value)
    def test_soft_demap(self, modulation):
        rng = np.random.default_rng(modulation.bits_per_symbol)
        symbols = _complex(rng, 5000)  # more than one demap block
        noise = rng.uniform(0.01, 1.0, 5000)
        frozen_s, before_s = _frozen(symbols)
        frozen_n, before_n = _frozen(noise)
        got = soft_demap(frozen_s, modulation, frozen_n)
        assert got.tobytes() == soft_demap(symbols, modulation, noise).tobytes()
        assert (frozen_s.tobytes(), frozen_n.tobytes()) == (before_s, before_n)
        # A scalar noise still broadcasts.
        flat = soft_demap(symbols, modulation, np.full(5000, 0.25))
        assert soft_demap(frozen_s, modulation, 0.25).tobytes() == flat.tobytes()

    def test_process_subframes(self):
        factory = SubframeFactory(seed=3)
        shapes = [
            (4, 1, Modulation.QPSK),
            (8, 2, Modulation.QAM16),
            (8, 2, Modulation.QAM16),
            (12, 4, Modulation.QAM64),
        ]
        subframes = [
            factory.synthesize(
                [UserParameters(uid, *shape) for uid, shape in enumerate(shapes)], index
            )
            for index in range(2)
        ]
        expected = process_subframes(subframes, backend="vectorized")
        frozen = [
            dataclasses.replace(subframe, grid=_frozen(subframe.grid)[0])
            for subframe in subframes
        ]
        before = [subframe.grid.tobytes() for subframe in frozen]
        got = process_subframes(frozen, backend="vectorized")
        assert all(a.equals(b) for a, b in zip(got, expected))
        assert all(result.user_results for result in got)
        assert [subframe.grid.tobytes() for subframe in frozen] == before


@pytest.mark.parametrize("transform", (np.fft.fft, np.fft.ifft), ids=("fft", "ifft"))
def test_in_place_fft_equals_out_of_place_on_every_width(transform):
    """``out=`` aliasing the input, on ``(3, 12 * PRB)`` for PRB 1..100."""
    rng = np.random.default_rng(0)
    for prb in range(1, 101):
        x = _complex(rng, 3, 12 * prb)
        expected = transform(x, axis=-1)
        returned = transform(x, axis=-1, out=x)
        assert returned is x
        assert x.tobytes() == expected.tobytes(), prb


def test_add_reduce_over_n_is_ndarray_mean():
    """On the shapes the chain reduces: the guard-band power, the (antenna,
    layer) noise grid, ``noise_after`` whole, and one user's columns of a
    ragged ``noise_after`` (strided)."""
    rng = np.random.default_rng(0)
    ragged = rng.uniform(size=(2, 4, 3 * 24 + 2 * 60))
    cases = [
        rng.uniform(size=(3, 2, 4, 2, 9)),
        rng.uniform(size=(3, 2, 8)),
        rng.uniform(size=(3, 2, 4, 1200)),
        rng.uniform(size=(1, 2, 1, 12)),
        ragged[..., :72].reshape(2, 4, 3, 24),
        ragged[..., 72:].reshape(2, 4, 2, 60),
    ]
    assert not cases[-1].flags.c_contiguous
    for x in cases:
        got = np.add.reduce(x, axis=-1) / x.shape[-1]
        assert got.tobytes() == x.mean(axis=-1).tobytes()
        assert got.dtype == np.float64
