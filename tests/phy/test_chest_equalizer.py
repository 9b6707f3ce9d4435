"""Tests for channel estimation and MMSE combining."""

import warnings

import numpy as np
import pytest

from repro.phy.channel import ChannelModel
from repro.phy import chest, sequences
from repro.phy.chest import (
    chest_task,
    dmrs_bank,
    matched_filter,
    window_lengths,
)
from repro.phy.batched import batched_combiner_weights
from repro.phy.chain import combiner_stage
from repro.phy.dtypes import COMPLEX_DTYPE, REAL_DTYPE
from repro.phy.equalizer import combine_antennas, mmse_combiner
from repro.phy.sequences import dmrs_for_layer

EPS = np.finfo(np.float64).eps


def _received_reference(response, layers, noise_variance, rng, antenna=0):
    """Synthesize the reference symbol seen at one antenna."""
    n = response.shape[2]
    ref = sum(response[antenna, l, :] * dmrs_for_layer(n, l) for l in range(layers))
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(
        noise_variance / 2
    )
    return ref + noise


class TestWindowLengths:
    def test_window_stays_inside_the_layer_spacing(self):
        # The next layer's response sits N/4 further on, its wrapped
        # negative-delay half from N/4 - back: the kept spans never meet.
        for num_prb in range(1, 101):
            n = 12 * num_prb
            keep, back = window_lengths(n)
            assert keep >= 1 and back >= 0
            assert keep + back <= n // 4


class TestOnePass:
    """Each chest task is one matched filter and one IFFT against one
    cached DMRS table per width, shared with the batched path."""

    def test_one_ifft_and_no_sequence_generation_per_task(self, monkeypatch):
        ref = np.random.default_rng(0).standard_normal(96) + 0j
        chest_task(ref, 1)  # warm-up: builds the width's table
        calls = {"ifft": 0, "dmrs_for_layer": 0}
        ifft, dmrs_for_layer = np.fft.ifft, sequences.dmrs_for_layer

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(np.fft, "ifft", counted("ifft", ifft))
        monkeypatch.setattr(
            sequences, "dmrs_for_layer", counted("dmrs_for_layer", dmrs_for_layer)
        )
        monkeypatch.setattr(
            chest, "dmrs_for_layer", counted("dmrs_for_layer", dmrs_for_layer)
        )
        chest_task(ref, 1)
        assert calls == {"ifft": 1, "dmrs_for_layer": 0}

    def test_dmrs_bank_is_keyed_by_width_alone(self):
        import inspect

        assert list(inspect.signature(dmrs_bank).parameters) == ["num_subcarriers"]
        bank = dmrs_bank(48)
        assert bank.shape == (4, 48) and not bank.flags.writeable
        assert dmrs_bank(48) is bank
        for layer in range(4):
            assert np.array_equal(bank[layer], np.conj(dmrs_for_layer(48, layer)))

    def test_one_table_and_one_estimator_remain(self):
        from repro.phy import batched, chain

        assert not {"estimate_channel", "estimate_noise_variance"} & set(dir(chest))
        assert "dmrs_bank" not in batched.__all__
        assert "chest_task" not in chain.__all__
        assert batched.dmrs_bank is dmrs_bank

    def test_layer_outside_the_table_is_refused(self):
        ref = dmrs_for_layer(48, 0)
        for layer in (-1, 4):
            with pytest.raises(ValueError, match="layer"):
                matched_filter(ref, layer)


class TestMatchedFilter:
    def test_recovers_flat_channel_exactly_noiseless(self):
        n = 48
        h = 0.7 - 0.2j
        ref = h * dmrs_for_layer(n, 0)
        assert np.allclose(matched_filter(ref, 0), h)

    def test_wrong_layer_gives_rotating_phase(self):
        n = 48
        ref = dmrs_for_layer(n, 0)
        out = matched_filter(ref, 2)
        # Layer-2 matched filter on layer-0 data: residual phase ramp, so the
        # mean collapses while the magnitude stays 1.
        assert abs(np.mean(out)) < 0.05
        assert np.allclose(np.abs(out), 1.0)


class TestEstimateChannel:
    def test_flat_channel_high_accuracy(self):
        rng = np.random.default_rng(0)
        model = ChannelModel(num_rx_antennas=1, num_taps=1, snr_db=30.0)
        real = model.realize(1, 144, rng)
        ref = _received_reference(real.response, 1, real.noise_variance, rng)
        est, _ = chest_task(ref, 0)
        mse = np.mean(np.abs(est - real.response[0, 0]) ** 2)
        # The window keeps keep+back of the 144 time samples, so the
        # residual error is that fraction of the noise (flat channel passes
        # through the window exactly); allow 3x for estimation variance.
        keep, back = window_lengths(144)
        expected = real.noise_variance * (keep + back) / 144
        assert mse < 3 * expected

    def test_denoising_beats_raw_matched_filter(self):
        rng = np.random.default_rng(1)
        model = ChannelModel(num_rx_antennas=1, num_taps=1, snr_db=10.0)
        real = model.realize(1, 144, rng)
        ref = _received_reference(real.response, 1, real.noise_variance, rng)
        h = real.response[0, 0]
        raw = matched_filter(ref, 0)
        est, _ = chest_task(ref, 0)
        err_raw = np.mean(np.abs(raw - h) ** 2)
        err_est = np.mean(np.abs(est - h) ** 2)
        assert err_est < err_raw * 0.3

    def test_layer_separation_four_layers(self):
        """With 4 simultaneous layers each estimate tracks its own channel."""
        rng = np.random.default_rng(2)
        model = ChannelModel(num_rx_antennas=1, num_taps=1, snr_db=40.0)
        real = model.realize(4, 144, rng)
        ref = _received_reference(real.response, 4, real.noise_variance, rng)
        for layer in range(4):
            est, _ = chest_task(ref, layer)
            h = real.response[0, layer]
            nmse = np.mean(np.abs(est - h) ** 2) / np.mean(np.abs(h) ** 2)
            assert nmse < 0.01, f"layer {layer} nmse {nmse}"

    def test_noise_variance_estimate_tracks_truth(self):
        rng = np.random.default_rng(3)
        model = ChannelModel(num_rx_antennas=1, num_taps=1, snr_db=20.0)
        real = model.realize(1, 288, rng)
        estimates = []
        for _ in range(30):
            ref = _received_reference(real.response, 1, real.noise_variance, rng)
            estimates.append(chest_task(ref, 0)[1])
        assert np.mean(estimates) == pytest.approx(real.noise_variance, rel=0.35)


def _random_channel(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _lapack_oracle(channel, noise_variance):
    """What the kernel replaced: partial-pivot LU (``np.linalg.solve``) per
    subcarrier, complex bias division, ``np.sum`` over the antennas."""
    channel = np.asarray(channel, dtype=np.complex128)
    noise_variance = np.asarray(noise_variance, dtype=np.float64)
    h = np.moveaxis(channel, -1, -3)  # (..., sc, antennas, layers)
    hh = np.conj(np.swapaxes(h, -1, -2))
    reg = hh @ h + (noise_variance[..., None, None, None] + 1e-12) * np.eye(
        channel.shape[-2]
    )
    weights = np.moveaxis(np.linalg.solve(reg, hh), -3, -1)
    bias = np.einsum("...lak,...alk->...lk", weights, channel)
    weights = weights / np.where(np.abs(bias) > 1e-9, bias, 1.0)[..., :, None, :]
    noise_after = noise_variance[..., None, None] * np.sum(
        np.abs(weights) ** 2, axis=-2
    )
    return weights, noise_after


def _relative_residual(channel, weights):
    """max over subcarriers of ``‖(G + λI)·B·W − Hᴴ‖ / (‖G + λI‖·‖B·W‖)``
    for σ² = 0 (λ = 1e-12) and the kernel's unbiased ``W``.

    The kernel returns ``W = B⁻¹·W_mmse`` with ``B`` the diagonal of layer
    gains, so the elimination's own residual is measured after putting the
    best-fitting diagonal back (least squares, one unknown per layer) —
    together with ``diag(W·H) = 1`` that pins ``W`` completely. The equation
    is scaled to O(1) first (by max|H| and max|G + λI|) so that channels at
    1e-150 and 1e+100 neither underflow nor overflow a norm.
    """
    antennas, layers, num_sc = channel.shape
    worst = 0.0
    for k in range(num_sc):
        h = channel[:, :, k]
        system = h.conj().T @ h + 1e-12 * np.eye(layers)
        h_scale, system_scale = np.abs(h).max(), np.abs(system).max()
        system = system / system_scale
        w = weights[:, :, k] * (system_scale / h_scale)
        # design[(i, a), j] = system[i, j]·w[j, a]; target[(i, a)] = conj(h[a, i])
        design = (system[:, None, :] * w.T[None, :, :]).reshape(-1, layers)
        target = (h.conj().T / h_scale).reshape(-1)
        gains = np.linalg.lstsq(design, target, rcond=None)[0]
        residual = np.linalg.norm(design @ gains - target)
        bound = np.linalg.norm(system) * np.linalg.norm(gains[:, None] * w)
        worst = max(worst, residual / bound)
    return worst


class TestMmseWeights:
    def _channel(self, antennas, layers, sc, seed):
        rng = np.random.default_rng(seed)
        return ChannelModel(num_rx_antennas=antennas, num_taps=1).realize(
            layers, sc, rng
        ).response

    def test_shape(self):
        h = self._channel(4, 2, 24, 0)
        w, noise_after = mmse_combiner(h, 0.01)
        assert w.shape == (2, 4, 24)
        assert noise_after.shape == (2, 24)

    def test_zero_noise_inverts_channel(self):
        h = self._channel(4, 2, 12, 1)
        w, _ = mmse_combiner(h, 0.0)
        # W @ H per subcarrier approaches identity.
        prod = np.einsum("lak,amk->lmk", w, h)
        eye = np.eye(2)[:, :, None]
        assert np.allclose(prod, eye, atol=1e-6)

    def test_rejects_more_layers_than_antennas(self):
        h = self._channel(2, 2, 12, 2)
        h = np.concatenate([h, h], axis=1)  # 4 layers, 2 antennas
        with pytest.raises(ValueError, match="more layers than antennas"):
            mmse_combiner(h, 0.01)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError, match="noise_variance must be >= 0"):
            mmse_combiner(self._channel(2, 1, 12, 3), -0.1)

    def test_rejects_noise_shape_mismatch(self):
        h = np.stack([self._channel(2, 1, 12, 3)] * 3)
        with pytest.raises(ValueError, match="one value per batch element"):
            mmse_combiner(h, np.full(2, 0.1))
        with pytest.raises(ValueError, match="one value per batch element"):
            mmse_combiner(h, 0.1)
        with pytest.raises(ValueError, match="antennas, layers, subcarriers"):
            mmse_combiner(h[0, 0], 0.1)

    def test_high_noise_shrinks_weights(self):
        # Unbiased MMSE rows run from zero forcing (σ² → 0, largest norm) to
        # maximum-ratio combining (σ² → ∞, smallest norm).
        h = self._channel(4, 2, 12, 4)
        w_low, _ = mmse_combiner(h, 1e-6)
        w_high, _ = mmse_combiner(h, 10.0)
        assert np.linalg.norm(w_high) < np.linalg.norm(w_low)

    def test_single_layer_is_maximum_ratio_combining(self):
        """One layer: conj(h)/Σ|h|² whatever the noise (the MRC weights)."""
        rng = np.random.default_rng(5)
        h = ChannelModel(num_rx_antennas=4, num_taps=1).realize(1, 12, rng).response
        mrc = np.conj(h[:, 0, :]) / np.sum(np.abs(h[:, 0, :]) ** 2, axis=0)
        for noise in (0.0, 0.3):
            w, _ = mmse_combiner(h, noise)
            assert w.shape == (1, 4, 12)
            assert np.allclose(w[0], mrc, rtol=1e-12, atol=0.0)
            # Applied to the pure channel the gain is exactly 1 per subcarrier.
            assert np.allclose(np.einsum("lak,alk->lk", w, h), 1.0)

    @pytest.mark.parametrize(
        "antennas,layers",
        [(a, l) for l in range(1, 5) for a in range(l, 5)],
    )
    def test_matches_lapack_oracle(self, antennas, layers):
        rng = np.random.default_rng(100 * antennas + layers)
        channel = _random_channel(rng, 3, 2, antennas, layers, 36)
        noise = rng.uniform(0.01, 0.1, (3, 2))
        weights, noise_after = mmse_combiner(channel, noise)
        want_w, want_n = _lapack_oracle(channel, noise)
        # Per subcarrier system, relative to the matrix norm: rtol 1e-11.
        error = np.linalg.norm(weights - want_w, axis=(-3, -2))
        assert np.all(error <= 1e-11 * np.linalg.norm(want_w, axis=(-3, -2)))
        np.testing.assert_allclose(noise_after, want_n, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e100])
    @pytest.mark.parametrize("layers", [2, 3, 4])
    def test_residual_near_rank_deficient(self, layers, scale):
        """σ² = 0 and layers equal up to 1e-7: only the 1e-12 regularizes.
        The residual stays within 64·eps·‖G + λI‖·‖W‖ (backward stable)."""
        rng = np.random.default_rng(layers)
        unit = np.repeat(_random_channel(rng, 4, 1, 8), layers, axis=1)
        unit = unit + 1e-7 * _random_channel(rng, 4, layers, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights, noise_after = mmse_combiner(scale * unit, 0.0)
        assert np.all(np.isfinite(weights))
        assert np.array_equal(noise_after, np.zeros((layers, 8)))
        assert _relative_residual(scale * unit, weights) <= 64 * EPS
        if scale >= 1.0:  # at 1e-150 the gain is below 1e-9: left unscaled
            gain = np.einsum("lak,alk->lk", weights, scale * unit)
            # Rows are ~1e7 long here, so re-summing them costs ~1e7·eps.
            assert np.allclose(gain, 1.0, rtol=1e-8, atol=0.0)

    def test_zero_channel_gives_zero_weights(self):
        for noise in (0.0, 0.2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                weights, noise_after = mmse_combiner(np.zeros((4, 3, 12)), noise)
            assert np.array_equal(weights, np.zeros((3, 4, 12)))
            assert np.array_equal(noise_after, np.zeros((3, 12)))

    def test_singular_subcarrier_is_nan_silent_and_contained(self):
        """An exactly singular regularized Gram (all powers of two, so the
        1e-12 is absorbed and the second pivot cancels to 0.0) poisons its
        own subcarrier and nothing else — no exception, no warning."""
        rng = np.random.default_rng(9)
        channel = _random_channel(rng, 3, 2, 4, 2, 13)
        noise = np.zeros((3, 2))
        channel[1, 0, :, 0, 5] = 1024.0
        channel[1, 0, :, 1, 5] = 1024.0 * (1 + 1j)
        with pytest.raises(np.linalg.LinAlgError):
            _lapack_oracle(channel, noise)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights, noise_after = mmse_combiner(channel, noise)
        bad = np.zeros(weights.shape, dtype=bool)
        bad[1, 0, :, :, 5] = True
        assert np.all(np.isnan(weights[bad]))
        assert np.all(np.isfinite(weights[~bad]))
        assert np.all(np.isnan(noise_after[1, 0, :, 5]))
        # Neighbours in the batch and on the subcarrier axis are untouched.
        clean = channel.copy()
        clean[1, 0, :, :, 5] = channel[0, 0, :, :, 5]
        clean_w, clean_n = mmse_combiner(clean, noise)
        assert np.array_equal(weights[~bad], clean_w[~bad])
        assert np.array_equal(
            np.delete(noise_after, 5, axis=-1), np.delete(clean_n, 5, axis=-1)
        )

    @pytest.mark.parametrize("num_sc", [24, 25])
    def test_batch_element_is_bit_identical_alone(self, num_sc):
        """`[user, slot]` of one stacked call == the same slice called alone
        == the serial stage — `array_equal`, by construction."""
        rng = np.random.default_rng(num_sc)
        channel = _random_channel(rng, 5, 2, 4, 3, num_sc)
        noise = rng.uniform(0.0, 0.2, (5, 2))
        weights, noise_after = mmse_combiner(channel, noise)
        batched_w, batched_n = batched_combiner_weights(channel, noise)
        assert np.array_equal(batched_w, weights)
        assert np.array_equal(batched_n, noise_after)
        for user in range(5):
            user_w, user_n = mmse_combiner(channel[user], noise[user])
            assert np.array_equal(user_w, weights[user])
            assert np.array_equal(user_n, noise_after[user])
            for slot in range(2):
                alone_w, alone_n = mmse_combiner(
                    channel[user, slot], noise[user, slot]
                )
                assert np.array_equal(alone_w, weights[user, slot])
                assert np.array_equal(alone_n, noise_after[user, slot])
                serial = combiner_stage(channel[user, slot], float(noise[user, slot]))
                assert np.array_equal(serial.weights, alone_w)
                assert np.array_equal(serial.noise_after_combining, alone_n)

    #: Three users' allocations laid end to end along the subcarrier axis.
    RAGGED_WIDTHS = (24, 25, 300)

    def _ragged(self, layers, seed):
        """Per-user ``(slots, antennas, layers, K)`` channels with per-slot
        noise, and the same laid end to end with per-subcarrier noise."""
        rng = np.random.default_rng(seed)
        channels = [_random_channel(rng, 2, 4, layers, k) for k in self.RAGGED_WIDTHS]
        noises = [rng.uniform(0.0, 0.2, 2) for _ in channels]
        noise = np.concatenate(
            [np.repeat(n[:, None], k, axis=1) for n, k in zip(noises, self.RAGGED_WIDTHS)],
            axis=1,
        )
        return channels, noises, np.concatenate(channels, axis=-1), noise

    @pytest.mark.parametrize("layers", [1, 2, 3, 4])
    def test_per_subcarrier_noise_equals_the_users_alone(self, layers):
        """The ragged use: piecewise-constant ``(slots, ΣK)`` noise over
        blocks of different widths == the three ``(slots,)``-noise calls
        concatenated — `array_equal`, weights and `noise_after`."""
        channels, noises, channel, noise = self._ragged(layers, seed=40 + layers)
        weights, noise_after = mmse_combiner(channel, noise)
        alone = [mmse_combiner(c, n) for c, n in zip(channels, noises)]
        assert weights.shape == (2, layers, 4, sum(self.RAGGED_WIDTHS))
        assert np.array_equal(weights, np.concatenate([w for w, _ in alone], axis=-1))
        assert np.array_equal(noise_after, np.concatenate([n for _, n in alone], axis=-1))
        # ... and without a batch: one slot, noise of shape (ΣK,).
        slot_w, slot_n = mmse_combiner(channel[1], noise[1])
        assert np.array_equal(slot_w, weights[1])
        assert np.array_equal(slot_n, noise_after[1])

    def test_singular_block_is_nan_in_its_own_columns_only(self):
        """An exactly singular middle user (every subcarrier, slot 0) comes
        out NaN in its 25 columns of that slot; the users laid on either
        side of it are bit-identical to running alone, and nothing warns."""
        channels, noises, channel, noise = self._ragged(2, seed=50)
        lo, hi = 24, 24 + 25
        noise[0, lo:hi] = 0.0
        channel[0, :, 0, lo:hi] = 1024.0
        channel[0, :, 1, lo:hi] = 1024.0 * (1 + 1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights, noise_after = mmse_combiner(channel, noise)
        bad = np.zeros(weights.shape, dtype=bool)
        bad[0, :, :, lo:hi] = True
        assert np.all(np.isnan(weights[bad])) and np.all(np.isfinite(weights[~bad]))
        assert np.all(np.isnan(noise_after[0, :, lo:hi]))
        for user, start in ((0, 0), (2, hi)):
            alone_w, alone_n = mmse_combiner(channels[user], noises[user])
            stop = start + self.RAGGED_WIDTHS[user]
            assert np.array_equal(weights[..., start:stop], alone_w)
            assert np.array_equal(noise_after[..., start:stop], alone_n)

    def test_per_subcarrier_noise_is_validated(self):
        _, _, channel, noise = self._ragged(2, seed=60)
        for wrong in (noise[:, :-1], noise[0], noise.T, noise[None]):
            with pytest.raises(ValueError, match="one per subcarrier"):
                mmse_combiner(channel, wrong)
        noise[1, 30] = -1e-3
        with pytest.raises(ValueError, match="noise_variance must be >= 0"):
            mmse_combiner(channel, noise)

    def test_foreign_dtype_and_layout_come_out_canonical(self):
        rng = np.random.default_rng(11)
        narrow = _random_channel(rng, 2, 4, 2, 24).astype(np.complex64)
        noise = np.array([0.1, 0.2], dtype=np.float32)
        want_w, want_n = mmse_combiner(
            narrow.astype(np.complex128), noise.astype(np.float64)
        )
        # Same values, antenna and subcarrier axes strided / reversed.
        padded = np.zeros((2, 8, 2, 48), dtype=np.complex64)
        padded[:, ::2, :, ::-2] = narrow
        for channel in (narrow, padded[:, ::2, :, ::-2]):
            weights, noise_after = mmse_combiner(channel, noise)
            assert weights.dtype == COMPLEX_DTYPE and weights.flags.c_contiguous
            assert noise_after.dtype == REAL_DTYPE and noise_after.flags.c_contiguous
            assert np.array_equal(weights, want_w)
            assert np.array_equal(noise_after, want_n)


class TestCombining:
    def test_perfect_combining_recovers_symbols(self):
        rng = np.random.default_rng(7)
        h = ChannelModel(num_rx_antennas=4, num_taps=1).realize(2, 24, rng).response
        tx = rng.standard_normal((2, 6, 24)) + 1j * rng.standard_normal((2, 6, 24))
        rx = np.einsum("alk,lsk->ask", h, tx)
        w, _ = mmse_combiner(h, 0.0)
        recovered = combine_antennas(rx, w)
        assert np.allclose(recovered, tx, atol=1e-6)

    def test_shape_checks(self):
        w = np.zeros((1, 4, 24), dtype=complex)
        with pytest.raises(ValueError):
            combine_antennas(np.zeros((2, 6, 24), dtype=complex), w)
        with pytest.raises(ValueError):
            combine_antennas(np.zeros((4, 6, 12), dtype=complex), w)

    def test_post_combining_noise(self):
        """noise_after = σ²·Σ_a |W|² of the returned (unbiased) weights."""
        h = np.ones((4, 1, 3), dtype=complex)
        w, sigma = mmse_combiner(h, 0.5)
        assert sigma.shape == (1, 3)
        assert np.allclose(w, 0.25)
        assert np.allclose(sigma, 0.5 * 4 * 0.25**2)
        rng = np.random.default_rng(8)
        h = _random_channel(rng, 4, 3, 12)
        w, sigma = mmse_combiner(h, 0.5)
        assert np.allclose(sigma, 0.5 * np.sum(np.abs(w) ** 2, axis=1), rtol=1e-14)
