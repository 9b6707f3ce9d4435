"""Tests for LTE numerology constants and allocation validation."""

import pytest

from repro.phy import params as p
from repro.phy.params import CellConfig, Modulation, validate_allocation
from repro.uplink.subframe import SubframeFactory
from repro.uplink.user import UserParameters


class TestNumerology:
    def test_subframe_structure(self):
        assert p.SLOTS_PER_SUBFRAME == 2
        assert p.SYMBOLS_PER_SLOT == 7
        assert p.DATA_SYMBOLS_PER_SLOT == 6
        assert p.DATA_SYMBOLS_PER_SUBFRAME == 12

    def test_reference_symbol_is_in_the_middle(self):
        # 3 data + 1 reference + 3 data (Section II-A).
        assert p.REFERENCE_SYMBOL_INDEX == 3

    def test_prb_dimensions(self):
        assert p.SUBCARRIERS_PER_PRB == 12
        assert p.MAX_PRB == 200
        assert p.MAX_PRB_PER_SLOT == 100

    def test_durations(self):
        assert p.SUBFRAME_DURATION_S == pytest.approx(1e-3)
        assert p.SLOT_DURATION_S == pytest.approx(0.5e-3)

    def test_limits(self):
        assert p.MIN_PRB_PER_USER == 2
        assert p.MAX_USERS_PER_SUBFRAME == 10
        assert p.MAX_LAYERS == 4
        assert p.NUM_RX_ANTENNAS == 4


class TestModulation:
    def test_bits_per_symbol(self):
        assert Modulation.QPSK.bits_per_symbol == 2
        assert Modulation.QAM16.bits_per_symbol == 4
        assert Modulation.QAM64.bits_per_symbol == 6

    def test_constellation_order(self):
        orders = [1 << m.bits_per_symbol for m in p.ALL_MODULATIONS]
        assert orders == [4, 16, 64]

    def test_all_modulations_ordered_by_efficiency(self):
        bits = [m.bits_per_symbol for m in p.ALL_MODULATIONS]
        assert bits == sorted(bits)


class TestCellConfig:
    def test_defaults_valid(self):
        cfg = CellConfig()
        assert cfg.max_prb_per_slot == 100

    def test_rejects_zero_antennas(self):
        with pytest.raises(ValueError):
            CellConfig(num_rx_antennas=0)

    def test_rejects_odd_max_prb(self):
        with pytest.raises(ValueError):
            CellConfig(max_prb=199)

    def test_rejects_small_fft(self):
        # 200 PRBs a slot need 2400 subcarriers; the FFT grid holds 2048.
        assert p.FFT_SIZE == 2048
        with pytest.raises(ValueError, match="FFT"):
            CellConfig(max_prb=400)

    def test_rejects_no_users(self):
        with pytest.raises(ValueError):
            CellConfig(max_users=0)


class TestValidation:
    def test_prb_subcarriers(self):
        # An allocation of N PRBs spans N/2 PRBs a slot, 12 subcarriers each.
        user = UserParameters(0, 2, 1, Modulation.QPSK)
        assert user.num_subcarriers == 12
        assert SubframeFactory().total_subcarriers == 1200

    def test_valid_allocation_passes(self):
        validate_allocation(2, 1, Modulation.QPSK)
        validate_allocation(200, 4, Modulation.QAM64)

    @pytest.mark.parametrize("prb", [0, 1, 201, 202])
    def test_rejects_bad_prb(self, prb):
        with pytest.raises(ValueError):
            validate_allocation(prb, 1, Modulation.QPSK)

    def test_rejects_odd_prb(self):
        with pytest.raises(ValueError):
            validate_allocation(3, 1, Modulation.QPSK)

    @pytest.mark.parametrize("layers", [0, 5])
    def test_rejects_bad_layers(self, layers):
        with pytest.raises(ValueError):
            validate_allocation(4, layers, Modulation.QPSK)

    def test_rejects_non_modulation(self):
        with pytest.raises(TypeError):
            validate_allocation(4, 1, "QPSK")
