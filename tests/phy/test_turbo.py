"""Tests for the pass-through turbo stub and the real turbo codec extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.turbo import PassThroughTurbo, QppInterleaver, RscEncoder, TurboCodec


class TestPassThrough:
    def test_encode_is_identity(self):
        bits = np.array([1, 0, 1, 1, 0])
        out = PassThroughTurbo().encode(bits)
        assert np.array_equal(out, bits)
        out[0] ^= 1  # encode must copy, not alias
        assert bits[0] == 1

    def test_decode_hard_decides(self):
        llrs = np.array([3.0, -2.0, 0.5, -0.1])
        assert PassThroughTurbo().decode(llrs, 4).tolist() == [0, 1, 0, 1]

    def test_decode_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PassThroughTurbo().decode(np.zeros(5), 4)

    def test_roundtrip_noiseless(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=100)
        codec = PassThroughTurbo()
        coded = codec.encode(bits)
        llrs = 1.0 - 2.0 * coded  # bit 0 -> +1, bit 1 -> -1
        assert np.array_equal(codec.decode(llrs, 100), bits)


class TestQppInterleaver:
    @pytest.mark.parametrize("k", [8, 40, 100, 256, 1000, 6144])
    def test_is_bijection(self, k):
        inter = QppInterleaver(k)
        assert sorted(inter.permutation.tolist()) == list(range(k))

    @pytest.mark.parametrize("k", [8, 64, 1000])
    def test_roundtrip(self, k):
        inter = QppInterleaver(k)
        values = np.arange(k) * 2.5
        assert np.allclose(inter.deinterleave(inter.interleave(values)), values)

    def test_f1_coprime(self):
        import math

        for k in (40, 48, 99, 1024):
            inter = QppInterleaver(k)
            assert math.gcd(inter.f1, k) == 1

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            QppInterleaver(4)

    def test_length_mismatch_rejected(self):
        inter = QppInterleaver(16)
        with pytest.raises(ValueError):
            inter.interleave(np.zeros(8))


class TestRscEncoder:
    def test_parity_length(self):
        enc = RscEncoder()
        parity, tail = enc.encode(np.zeros(20, dtype=int))
        assert parity.size == 20
        assert tail.size == 6  # 3 bit pairs

    def test_zero_input_zero_output(self):
        enc = RscEncoder()
        parity, tail = enc.encode(np.zeros(16, dtype=int))
        assert not parity.any()
        assert not tail.any()

    def test_termination_returns_to_zero_state(self):
        enc = RscEncoder()
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=50)
        parity, tail = enc.encode(bits)
        # Re-run manually and check the final state after tail insertion.
        state = 0
        for b in bits:
            state = enc.next_state[state, b]
        for i in range(0, 6, 2):
            state = enc.next_state[state, tail[i]]
        assert state == 0

    def test_recursive_ir_is_infinite(self):
        """A single 1 keeps the recursive encoder's parity active."""
        enc = RscEncoder()
        impulse = np.zeros(30, dtype=int)
        impulse[0] = 1
        # The tail follows the 30 data bits; the parity over them is the
        # impulse response. Non-recursive codes would quiet down after the
        # constraint length.
        parity, _ = enc.encode(impulse)
        assert parity[8:].any()

    def test_transition_tables_consistent(self):
        enc = RscEncoder()
        # Every state must be reachable and every row valid.
        assert set(enc.next_state.reshape(-1).tolist()) == set(range(8))
        assert set(np.unique(enc.parity_out)) <= {0, 1}


class TestTurboCodec:
    def test_encoded_length(self):
        codec = TurboCodec()
        assert codec.encoded_length(100) == 312
        assert codec.encode(np.zeros(100, dtype=int)).size == 312

    def test_decode_noiseless(self):
        rng = np.random.default_rng(2)
        codec = TurboCodec(iterations=4)
        bits = rng.integers(0, 2, size=120)
        coded = codec.encode(bits)
        llrs = (1.0 - 2.0 * coded) * 4.0
        assert np.array_equal(codec.decode(llrs, 120), bits)

    def test_corrects_errors_at_moderate_snr(self):
        """Rate-1/3 turbo corrects a BSC-like corruption raw QPSK cannot."""
        rng = np.random.default_rng(3)
        codec = TurboCodec(iterations=8)
        bits = rng.integers(0, 2, size=200)
        coded = codec.encode(bits)
        # BPSK over AWGN at ~0 dB Eb/N0 for rate 1/3.
        tx = 1.0 - 2.0 * coded
        sigma = 0.8
        received = tx + sigma * rng.standard_normal(tx.size)
        llrs = 2.0 * received / sigma**2
        decoded = codec.decode(llrs, 200)
        raw_errors = np.count_nonzero((received < 0).astype(int) != coded)
        turbo_errors = np.count_nonzero(decoded != bits)
        assert raw_errors > 0  # the channel genuinely corrupted bits
        assert turbo_errors == 0

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            TurboCodec().decode(np.zeros(100), 40)

    def test_rate_denominator(self):
        assert TurboCodec().rate_denominator == 3
        assert PassThroughTurbo().rate_denominator == 1


@given(k=st.integers(min_value=8, max_value=512))
@settings(max_examples=30, deadline=None)
def test_property_qpp_bijection(k):
    inter = QppInterleaver(k)
    assert np.unique(inter.permutation).size == k


@given(seed=st.integers(0, 2**16), size=st.integers(min_value=16, max_value=96))
@settings(max_examples=15, deadline=None)
def test_property_turbo_noiseless_roundtrip(seed, size):
    rng = np.random.default_rng(seed)
    codec = TurboCodec(iterations=3)
    bits = rng.integers(0, 2, size=size)
    llrs = (1.0 - 2.0 * codec.encode(bits)) * 5.0
    assert np.array_equal(codec.decode(llrs, size), bits)
