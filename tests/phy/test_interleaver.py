"""Tests for the row-column channel interleaver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.interleaver import (
    COLUMN_PERMUTATION,
    NUM_COLUMNS,
    deinterleave,
    deinterleave_indices,
    deinterleave_rows,
    interleave,
    interleave_indices,
)


class TestPermutationTable:
    def test_is_a_permutation(self):
        assert sorted(COLUMN_PERMUTATION.tolist()) == list(range(NUM_COLUMNS))

    def test_matches_ts36212_bit_reversal_structure(self):
        """The LTE pattern is a 5-bit bit-reversal of the column index."""
        for i, col in enumerate(COLUMN_PERMUTATION):
            reversed_bits = int(f"{i:05b}"[::-1], 2)
            assert col == reversed_bits


class TestInterleaveDeinterleave:
    @pytest.mark.parametrize("length", [1, 2, 31, 32, 33, 64, 100, 1000, 4096])
    def test_roundtrip(self, length):
        values = np.arange(length)
        assert np.array_equal(deinterleave(interleave(values)), values)

    @pytest.mark.parametrize("length", [32, 64, 1000])
    def test_is_a_permutation(self, length):
        out = interleave(np.arange(length))
        assert sorted(out.tolist()) == list(range(length))

    def test_actually_scrambles(self):
        values = np.arange(256)
        out = interleave(values)
        assert not np.array_equal(out, values)

    def test_spreads_adjacent_symbols(self):
        """Adjacent input symbols end far apart in the output (burst protection)."""
        length = 320
        indices = interleave_indices(length)
        position_of = np.empty(length, dtype=int)
        position_of[indices] = np.arange(length)
        gaps = np.abs(np.diff(position_of))
        assert np.median(gaps) >= length // NUM_COLUMNS

    def test_works_on_complex_symbols(self):
        rng = np.random.default_rng(0)
        symbols = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        assert np.allclose(deinterleave(interleave(symbols)), symbols)

    def test_works_on_float_llrs(self):
        llrs = np.linspace(-5, 5, 77)
        assert np.allclose(deinterleave(interleave(llrs)), llrs)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            interleave_indices(0)

    def test_deterministic(self):
        assert np.array_equal(interleave_indices(500), interleave_indices(500))

    @pytest.mark.parametrize("length", [1, 31, 32, 33, 1000, 4112])
    def test_deinterleave_indices_gather_what_deinterleave_scatters(self, length):
        values = np.random.default_rng(length).standard_normal((3, length))
        gather = deinterleave_indices(length)
        assert np.array_equal(gather[interleave_indices(length)], np.arange(length))
        assert np.array_equal(values[0][gather], deinterleave(values[0]))
        assert np.array_equal(values[:, gather], deinterleave_rows(values))

    def test_deinterleave_indices_are_fresh_and_validated(self):
        first = deinterleave_indices(64)
        first[:] = 0
        assert sorted(deinterleave_indices(64).tolist()) == list(range(64))
        with pytest.raises(ValueError):
            deinterleave_indices(0)


@given(length=st.integers(min_value=1, max_value=2048))
@settings(max_examples=60, deadline=None)
def test_property_roundtrip_any_length(length):
    values = np.arange(length)
    assert np.array_equal(deinterleave(interleave(values)), values)
    assert sorted(interleave(values).tolist()) == list(range(length))
