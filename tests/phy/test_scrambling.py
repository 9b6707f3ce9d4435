"""Tests for Gold-sequence scrambling and its chain integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.scrambling import (
    descramble_llrs,
    gold_sequence,
    scramble_bits,
)

#: TS 36.211 §5.3.1's PUSCH seed ``RNTI·2^14 + subframe·2^9 + cell_id`` for
#: RNTI 61 in subframe 4 of cell 3.
PUSCH_C_INIT = (61 << 14) + (4 << 9) + 3


def loop_gold_sequence(c_init, length):
    """TS 36.211 §7.2 one bit per iteration: the oracle for the block form."""
    total = 1600 + length
    x1 = np.zeros(total + 31, dtype=np.int8)
    x2 = np.zeros(total + 31, dtype=np.int8)
    x1[0] = 1
    for bit in range(31):
        x2[bit] = (c_init >> bit) & 1
    for n in range(total):
        x1[n + 31] = (x1[n + 3] + x1[n]) % 2
        x2[n + 31] = (x2[n + 3] + x2[n + 2] + x2[n + 1] + x2[n]) % 2
    return ((x1[1600:total] + x2[1600:total]) % 2).astype(np.int64)


class TestGoldSequence:
    def test_binary_output(self):
        c = gold_sequence(12345, 500)
        assert set(np.unique(c)) <= {0, 1}
        assert c.size == 500

    def test_balanced(self):
        """Gold sequences are near-balanced between 0s and 1s."""
        c = gold_sequence(777, 10_000)
        assert abs(c.mean() - 0.5) < 0.02

    def test_low_autocorrelation(self):
        c = 1.0 - 2.0 * gold_sequence(42, 4096)
        for lag in (1, 7, 63, 500):
            corr = np.dot(c[:-lag], c[lag:]) / (c.size - lag)
            assert abs(corr) < 0.06, lag

    def test_different_seeds_differ(self):
        a = gold_sequence(1, 256)
        b = gold_sequence(2, 256)
        assert np.count_nonzero(a != b) > 64

    def test_deterministic(self):
        assert np.array_equal(gold_sequence(99, 128), gold_sequence(99, 128))

    def test_known_x1_only_sequence(self):
        """c_init = 0 zeroes x2, leaving the pure x1 m-sequence — still a
        non-degenerate binary sequence (the sparse initial state mixes
        slowly, so the early window is only roughly balanced)."""
        c = gold_sequence(0, 2048)
        assert 0.3 < c.mean() < 0.7
        assert np.array_equal(gold_sequence(0, 64), gold_sequence(0, 64))

    def test_validation(self):
        with pytest.raises(ValueError):
            gold_sequence(-1, 10)
        with pytest.raises(ValueError):
            gold_sequence(1 << 31, 10)
        with pytest.raises(ValueError):
            gold_sequence(1, -1)

    def test_zero_length(self):
        assert gold_sequence(5, 0).size == 0

    @pytest.mark.parametrize("length", [0, 1, 31, 1599, 1600, 1601, 69_120])
    @pytest.mark.parametrize(
        "c_init", [0, 1, 12345, 0x2AAAAAAA, PUSCH_C_INIT, (1 << 31) - 1]
    )
    def test_block_recurrence_equals_the_bit_loop(self, c_init, length):
        got = gold_sequence(c_init, length)
        assert got.dtype == np.int64
        assert np.array_equal(got, loop_gold_sequence(c_init, length))


class TestScrambleDescramble:
    def test_bit_roundtrip(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=777)
        assert np.array_equal(scramble_bits(scramble_bits(bits, 9), 9), bits)

    def test_llr_descramble_matches_bit_scramble(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=300)
        scrambled = scramble_bits(bits, 33)
        llrs = 1.0 - 2.0 * scrambled  # ideal soft values of scrambled bits
        descrambled = descramble_llrs(llrs, 33)
        assert np.array_equal((descrambled < 0).astype(int), bits)

    def test_wrong_seed_breaks(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=400)
        garbled = scramble_bits(scramble_bits(bits, 7), 8)
        assert np.count_nonzero(garbled != bits) > 100

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            scramble_bits(np.array([0, 1, 2]), 1)


class TestChainIntegration:
    def test_end_to_end_with_scrambling(self):
        from repro.phy import (
            ChannelModel,
            Modulation,
            UserAllocation,
            process_user,
            random_payload,
            transmit_subframe,
        )

        rng = np.random.default_rng(3)
        alloc = UserAllocation(num_prb=12, layers=2, modulation=Modulation.QAM16)
        payload = random_payload(alloc, rng)
        c_init = PUSCH_C_INIT
        tx = transmit_subframe(alloc, payload, rng, scrambling_c_init=c_init)
        channel = ChannelModel(num_rx_antennas=4, num_taps=1, snr_db=30.0)
        rx = channel.realize(2, alloc.num_subcarriers, rng).apply(tx.grid, rng)
        result = process_user(alloc, rx, scrambling_c_init=c_init)
        assert result.crc_ok
        assert np.array_equal(result.payload, payload)

    def test_missing_descramble_fails_crc(self):
        from repro.phy import (
            ChannelModel,
            Modulation,
            UserAllocation,
            process_user,
            random_payload,
            transmit_subframe,
        )

        rng = np.random.default_rng(4)
        alloc = UserAllocation(num_prb=12, layers=1, modulation=Modulation.QPSK)
        payload = random_payload(alloc, rng)
        tx = transmit_subframe(alloc, payload, rng, scrambling_c_init=1234)
        channel = ChannelModel(num_rx_antennas=4, num_taps=1, snr_db=30.0)
        rx = channel.realize(1, alloc.num_subcarriers, rng).apply(tx.grid, rng)
        result = process_user(alloc, rx)  # receiver unaware of scrambling
        assert not result.crc_ok


@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 400))
@settings(max_examples=30, deadline=None)
def test_property_scramble_is_involution(seed, n):
    bits = (np.arange(n) * 7919) % 2
    assert np.array_equal(scramble_bits(scramble_bits(bits, seed), seed), bits)
