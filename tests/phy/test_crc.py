"""Tests for the LTE CRC implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.crc import (
    CRC8,
    CRC16,
    CRC24A,
    CRC24B,
    CrcPolynomial,
    crc_attach,
    crc_check,
    crc_check_rows,
)

ALL_POLYS = [CRC24A, CRC24B, CRC16, CRC8]


@pytest.mark.parametrize("poly", ALL_POLYS, ids=lambda p: p.name)
class TestCrcBasics:
    def test_zero_message_has_zero_crc(self, poly):
        assert poly.compute(np.zeros(64, dtype=int)) == 0

    def test_table_matches_bitwise(self, poly):
        rng = np.random.default_rng(0)
        for size in (1, 7, 8, 9, 31, 32, 100, 257):
            bits = rng.integers(0, 2, size=size)
            assert poly.compute(bits) == poly.compute_bitwise(bits)

    def test_attach_then_check(self, poly):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=200)
        assert crc_check(crc_attach(bits, poly), poly)

    def test_single_bit_error_detected(self, poly):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=100)
        coded = crc_attach(bits, poly)
        for pos in range(0, coded.size, 17):
            corrupted = coded.copy()
            corrupted[pos] ^= 1
            assert not crc_check(corrupted, poly)

    def test_burst_error_detected(self, poly):
        """CRCs detect all bursts no longer than their width."""
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=120)
        coded = crc_attach(bits, poly)
        for start in (0, 10, 50):
            corrupted = coded.copy()
            burst = rng.integers(0, 2, size=poly.width)
            burst[0] = 1  # non-trivial burst
            corrupted[start : start + poly.width] ^= burst
            if np.any(corrupted != coded):
                assert not crc_check(corrupted, poly)

    def test_crc_bits_width(self, poly):
        assert poly.to_bits(0).size == poly.width
        assert poly.to_bits((1 << poly.width) - 1).tolist() == [1] * poly.width


class TestKnownValues:
    """Cross-checks against independently computed CRC values."""

    def test_crc16_ccitt_known_vector(self):
        # "123456789" ASCII with CRC16/XMODEM (poly 0x1021, init 0) = 0x31C3.
        data = b"123456789"
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8)).astype(np.int64)
        assert CRC16.compute(bits) == 0x31C3

    def test_crc24a_nonzero_for_nonzero_message(self):
        bits = np.zeros(40, dtype=int)
        bits[0] = 1
        assert CRC24A.compute(bits) != 0

    def test_polynomials_are_distinct(self):
        bits = np.ones(48, dtype=int)
        values = {p.name: p.compute(bits) for p in ALL_POLYS}
        assert len(set(values.values())) == len(values)


class TestValidation:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            CRC24A.compute(np.array([0, 1, 2]))

    def test_check_rejects_too_short(self):
        with pytest.raises(ValueError):
            crc_check(np.zeros(10, dtype=int), CRC24A)


@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=300),
    poly_idx=st.integers(0, len(ALL_POLYS) - 1),
)
@settings(max_examples=50, deadline=None)
def test_property_attach_check_roundtrip(bits, poly_idx):
    poly = ALL_POLYS[poly_idx]
    assert crc_check(crc_attach(np.array(bits), poly), poly)


@given(
    bits=st.lists(st.integers(0, 1), min_size=8, max_size=200),
    flip=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=50, deadline=None)
def test_property_any_single_flip_detected(bits, flip):
    coded = crc_attach(np.array(bits), CRC24A)
    corrupted = coded.copy()
    corrupted[flip % coded.size] ^= 1
    assert not crc_check(corrupted, CRC24A)


def fresh(poly):
    """A cold copy of a polynomial: its tables start empty."""
    return CrcPolynomial(poly.name, poly.width, poly.poly)


def loop_remainders(poly, count):
    """``x^k mod g`` one shift-register step at a time (the oracle)."""
    table, reg = [], 1
    top, mask = 1 << (poly.width - 1), (1 << poly.width) - 1
    for _ in range(count):
        table.append(reg)
        reg = ((reg << 1) ^ poly.poly) & mask if reg & top else (reg << 1) & mask
    return np.array(table, dtype=np.uint64)


@pytest.mark.parametrize("poly", ALL_POLYS, ids=lambda p: p.name)
class TestRemainderDoubling:
    def test_table_equals_the_loop_entry_for_entry(self, poly):
        cold = fresh(poly)
        for count in (1, 2, 3, 5, poly.width, poly.width + 1, 100, 1000, 4097):
            table = cold._remainders_upto(count)
            assert table.size >= count
            assert table.dtype == np.uint64
            assert np.array_equal(table, loop_remainders(poly, table.size))

    def test_one_big_step_equals_many_small_ones(self, poly):
        stepwise = fresh(poly)
        for count in range(1, 300, 7):
            stepwise._remainders_upto(count)
        at_once = fresh(poly)._remainders_upto(stepwise._remainders.size)
        assert np.array_equal(at_once[: stepwise._remainders.size], stepwise._remainders)

    def test_entries_are_crcs_of_a_single_set_bit(self, poly):
        table = fresh(poly)._remainders_upto(poly.width + 64)
        for length in (1, 9, 64):
            message = np.zeros(length, dtype=int)
            message[0] = 1
            # compute_bitwise appends `width` zero bits: x^(length-1+width).
            assert poly.compute_bitwise(message) == table[length - 1 + poly.width]


def codewords(poly, length, rng, rows=6):
    """``rows`` valid codewords of ``length`` bits (payload + CRC)."""
    return np.array(
        [
            crc_attach(rng.integers(0, 2, length - poly.width), poly)
            for _ in range(rows)
        ]
    )


def bitwise_ok(poly, row):
    """Oracle: the codeword leaves the bitwise shift register at zero."""
    return poly.compute_bitwise(row) == 0


@pytest.mark.parametrize("poly", ALL_POLYS, ids=lambda p: p.name)
class TestCrcCheckRows:
    # Lengths ≡ 0 and ≢ 0 (mod 8) and (mod 64): the latter are left-padded.
    LENGTHS = (32, 40, 288, 289, 1000, 1001, 4096, 4099)

    def test_valid_rows_pass(self, poly):
        rng = np.random.default_rng(1)
        for length in self.LENGTHS:
            rows = codewords(poly, length, rng)
            assert crc_check_rows(rows, poly).tolist() == [True] * len(rows)

    def test_mixed_rows_match_the_bitwise_oracle(self, poly):
        rng = np.random.default_rng(2)
        for length in self.LENGTHS:
            rows = codewords(poly, length, rng)
            for row in (1, 2, 4):
                rows[row, rng.integers(0, length, size=row)] ^= 1
            expected = [bitwise_ok(poly, row) for row in rows]
            assert expected[0] and expected[3] and not expected[1]
            got = crc_check_rows(rows, poly)
            assert got.dtype == np.bool_ and got.shape == (len(rows),)
            assert got.tolist() == expected
            assert [crc_check(row, poly) for row in rows] == expected

    def test_every_single_bit_flip_is_caught(self, poly):
        rng = np.random.default_rng(3)
        for length in (48, 51):
            codeword = codewords(poly, length, rng, rows=1)[0]
            flipped = codeword ^ np.eye(length, dtype=codeword.dtype)
            assert not crc_check_rows(flipped, poly).any()
            assert crc_check_rows(codeword[None], poly).all()

    def test_boolean_rows_are_taken_as_they_are(self, poly):
        rows = codewords(poly, 96, np.random.default_rng(4))
        rows[1, 5] ^= 1
        assert (
            crc_check_rows(rows.astype(bool), poly).tolist()
            == crc_check_rows(rows, poly).tolist()
            == [True, False, True, True, True, True]
        )

    def test_crc_alone_is_a_codeword_of_the_empty_payload(self, poly):
        zero = np.zeros((1, poly.width), dtype=int)
        assert crc_check_rows(zero, poly).tolist() == [True]
        zero[0, -1] = 1
        assert crc_check_rows(zero, poly).tolist() == [False]

    def test_shorter_than_the_crc_rejected(self, poly):
        with pytest.raises(ValueError, match="shorter"):
            crc_check_rows(np.zeros((2, poly.width - 1), dtype=int), poly)

    def test_leading_zeros_and_growth_leave_answers_alone(self, poly):
        """One right-aligned table: a short check after a long one, and a
        codeword behind leading zeros, read the same trailing columns."""
        rng = np.random.default_rng(5)
        cold = fresh(poly)
        short = codewords(poly, 64, rng)
        short[2, 7] ^= 1
        before = crc_check_rows(short, cold).tolist()
        assert crc_check_rows(codewords(poly, 8000, rng), cold).all()
        assert crc_check_rows(short, cold).tolist() == before
        padded = np.concatenate([np.zeros((len(short), 128), dtype=int), short], axis=1)
        assert crc_check_rows(padded, cold).tolist() == before


class TestCrcCheckRowsValidation:
    def test_rejects_non_binary(self):
        rows = np.zeros((2, 32), dtype=int)
        rows[1, 3] = 2
        with pytest.raises(ValueError, match="0/1"):
            crc_check_rows(rows)
        with pytest.raises(ValueError, match="0/1"):
            crc_check(rows[1])

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            crc_check_rows(np.zeros(48, dtype=int))

    def test_no_rows(self):
        assert crc_check_rows(np.zeros((0, 48), dtype=bool)).shape == (0,)


@given(
    payload=st.lists(st.integers(0, 1), min_size=0, max_size=200),
    flips=st.lists(st.integers(0, 10_000), max_size=3),
    poly_idx=st.integers(0, len(ALL_POLYS) - 1),
)
@settings(max_examples=60, deadline=None)
def test_property_rows_check_equals_bitwise_oracle(payload, flips, poly_idx):
    poly = ALL_POLYS[poly_idx]
    good = crc_attach(np.array(payload, dtype=np.int64), poly)
    bad = good.copy()
    for flip in flips:
        bad[flip % bad.size] ^= 1
    rows = np.array([good, bad])
    assert crc_check_rows(rows, poly).tolist() == [True, bitwise_ok(poly, bad)]


class TestCrcResources:
    """Regressions found while sizing the batched check."""

    def test_one_table_per_polynomial_whatever_the_lengths(self):
        """300 distinct lengths leave one mask table, not one per length.

        The table holds ``width`` bits per covered codeword bit (3 bytes for
        CRC24A) and grows geometrically, so it covers less than twice the
        longest length seen.
        """
        cold = fresh(CRC24A)
        rng = np.random.default_rng(6)
        lengths = 288 * rng.permutation(np.arange(1, 301))
        for length in lengths:
            row = rng.integers(0, 2, (1, int(length))).astype(bool)
            crc_check_rows(row, cold)
        arrays = [v for v in vars(cold).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 2  # the x^k remainders and the parity masks
        longest = int(lengths.max())
        assert cold._parity_masks.shape[0] == 24
        covered = 64 * cold._parity_masks.shape[1]
        assert longest <= covered < 2 * longest + 64
        assert cold._parity_masks.nbytes == 3 * covered

    def test_first_wideband_check_stays_under_32_mb(self):
        """Building the masks for a 691 200-bit row never holds a
        ``(24, n)`` word-per-bit intermediate (132 MB)."""
        import tracemalloc

        cold = fresh(CRC24A)
        row = np.random.default_rng(7).integers(0, 2, (1, 691_200)).astype(bool)
        tracemalloc.start()
        try:
            crc_check_rows(row, cold)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
