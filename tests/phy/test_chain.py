"""End-to-end tests of the full per-user receiver chain (Fig. 3)."""

import numpy as np
import pytest

from repro.phy import (
    ChannelModel,
    Modulation,
    UserAllocation,
    process_user,
    random_payload,
    transmit_subframe,
)
from repro.phy.chain import combiner_stage, finalize_user, symbol_task
from repro.phy.chest import chest_task
from repro.phy.params import SYMBOLS_PER_SLOT
from repro.phy.transmitter import data_symbol_indices
from repro.phy.turbo import TurboCodec


def run_link(num_prb, layers, mod, snr_db, seed, num_taps=1, codec=None):
    """TX → channel → RX for one user; returns (payload, result)."""
    rng = np.random.default_rng(seed)
    alloc = UserAllocation(num_prb=num_prb, layers=layers, modulation=mod)
    payload = random_payload(alloc, rng, codec)
    tx = transmit_subframe(alloc, payload, rng, codec=codec)
    chan = ChannelModel(num_rx_antennas=4, num_taps=num_taps, snr_db=snr_db)
    real = chan.realize(layers, alloc.num_subcarriers, rng)
    rx = real.apply(tx.grid, rng)
    result = process_user(alloc, rx, codec=codec)
    return payload, result


class TestEndToEnd:
    @pytest.mark.parametrize("mod", [Modulation.QPSK, Modulation.QAM16])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_crc_passes_selective_channel(self, mod, layers):
        payload, result = run_link(24, layers, mod, snr_db=35.0, seed=42, num_taps=3)
        assert result.crc_ok
        assert np.array_equal(result.payload, payload)

    @pytest.mark.parametrize("layers", [1, 2, 4])
    def test_crc_passes_flat_channel_64qam(self, layers):
        payload, result = run_link(16, layers, Modulation.QAM64, snr_db=38.0, seed=11)
        assert result.crc_ok
        assert np.array_equal(result.payload, payload)

    def test_low_snr_fails_crc(self):
        _, result = run_link(8, 4, Modulation.QAM64, snr_db=0.0, seed=5, num_taps=3)
        assert not result.crc_ok

    def test_high_snr_four_layer_selective_low_ber(self):
        """4-layer 64QAM on a selective channel: a small error floor remains
        from the windowed estimator's leakage (a known limitation of the
        paper's IFFT-window-FFT estimator), and badly conditioned 4x4
        fading realizations can fail outright — so this checks a
        representative realization plus a median across seeds."""
        bers = []
        for seed in (4, 5, 7):
            payload, result = run_link(
                40, 4, Modulation.QAM64, snr_db=40.0, seed=seed, num_taps=3
            )
            bers.append(float(np.mean(result.payload != payload)))
        assert sorted(bers)[1] < 0.05  # median seed is solid
        assert min(bers) < 0.02  # the well-conditioned case is clean

    def test_with_real_turbo_codec(self):
        codec = TurboCodec(iterations=4)
        payload, result = run_link(
            16, 1, Modulation.QAM16, snr_db=25.0, seed=9, num_taps=1, codec=codec
        )
        assert result.crc_ok
        assert np.array_equal(result.payload, payload)

    def test_turbo_outperforms_passthrough_at_low_snr(self):
        seed = 21
        snr = 11.0
        codec_ber = []
        for codec in (None, TurboCodec(iterations=6)):
            payload, result = run_link(
                24, 1, Modulation.QAM16, snr_db=snr, seed=seed, num_taps=1, codec=codec
            )
            codec_ber.append(float(np.mean(result.payload != payload)))
        passthrough_ber, turbo_ber = codec_ber
        assert turbo_ber < passthrough_ber

    def test_deterministic(self):
        p1, r1 = run_link(8, 2, Modulation.QAM16, 30.0, seed=77)
        p2, r2 = run_link(8, 2, Modulation.QAM16, 30.0, seed=77)
        assert np.array_equal(p1, p2)
        assert r1.equals(r2)

    def test_result_equals_detects_difference(self):
        _, r1 = run_link(8, 1, Modulation.QPSK, 30.0, seed=1)
        _, r2 = run_link(8, 1, Modulation.QPSK, 30.0, seed=2)
        assert not r1.equals(r2)


class TestStageFunctions:
    def test_process_user_validates_grid(self):
        alloc = UserAllocation(num_prb=8, layers=1, modulation=Modulation.QPSK)
        with pytest.raises(ValueError):
            process_user(alloc, np.zeros((4, 13, alloc.num_subcarriers), dtype=complex))
        with pytest.raises(ValueError):
            process_user(alloc, np.zeros((4, 14, 12), dtype=complex))

    def test_stagewise_equals_process_user(self):
        """Driving the stages manually reproduces process_user exactly."""
        rng = np.random.default_rng(123)
        alloc = UserAllocation(num_prb=16, layers=2, modulation=Modulation.QAM16)
        payload = random_payload(alloc, rng)
        tx = transmit_subframe(alloc, payload, rng)
        chan = ChannelModel(num_rx_antennas=4, num_taps=1, snr_db=30.0)
        real = chan.realize(2, alloc.num_subcarriers, rng)
        rx = real.apply(tx.grid, rng)

        reference = process_user(alloc, rx)

        # Manual staged execution (what the parallel runtime does).
        slot_estimates = []
        for slot in range(2):
            ref_sym = slot * SYMBOLS_PER_SLOT + 3
            channel = np.empty((4, 2, alloc.num_subcarriers), dtype=complex)
            noises = []
            for antenna in range(4):
                for layer in range(2):
                    est, noise = chest_task(rx[antenna, ref_sym, :], layer)
                    channel[antenna, layer, :] = est
                    noises.append(noise)
            slot_estimates.append(combiner_stage(channel, float(np.mean(noises))))
        layer_symbols = np.empty((2, 12, alloc.num_subcarriers), dtype=complex)
        for row, sym in enumerate(data_symbol_indices()):
            slot = sym // SYMBOLS_PER_SLOT
            for layer in range(2):
                layer_symbols[layer, row, :] = symbol_task(
                    rx[:, sym, :], slot_estimates[slot].weights, layer
                )
        noise_pls = np.stack(
            [e.noise_after_combining.mean(axis=1) for e in slot_estimates], axis=1
        )
        manual = finalize_user(alloc, layer_symbols, noise_pls)
        assert manual.equals(reference)

    def test_finalize_rejects_bad_shape(self):
        alloc = UserAllocation(num_prb=8, layers=1, modulation=Modulation.QPSK)
        with pytest.raises(ValueError):
            finalize_user(
                alloc,
                np.zeros((2, 12, alloc.num_subcarriers), dtype=complex),
                np.ones((1, 2)),
            )
