"""An outside oracle on the decoded bits: uncoded BER over AWGN.

One user, one layer, one receive antenna, a flat unit channel (one tap,
no fading): ``transmit_subframe`` → AWGN → ``process_user``. The bit errors
counted from the decoded payload are compared with the closed-form BER of
Gray-mapped square M-QAM (Cho & Yoon, IEEE Trans. Commun. 50(7), 2002),
the AWGN reference that link-level simulators such as the Vienna LTE-A
uplink simulator validate against. Nothing of the receiver's constellation
tables is used: the formula depends on M and the SNR only.

The receiver estimates its channel from the DMRS, so it cannot reach the
perfect-CSI curve. The allowance for that is stated from the estimator
alone: the IFFT-window-FFT estimate keeps W = (keep + back) / n of the
time-domain samples, so its error variance is σ_e² = W·N0, and the
standard imperfect-CSI effective SNR is ρ_eff = ρ / (1 + σ_e²·(1 + ρ)).
The errors counted must lie inside the 99.9 % binomial interval spanned by
the perfect-CSI BER at ρ (nothing beats it) and the BER at ρ_eff.
"""

import math

import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import binom

from repro.phy import Modulation, UserAllocation, process_user, transmit_subframe
from repro.phy.channel import ChannelRealization
from repro.phy.chest import ChestConfig
from repro.phy.transmitter import random_payload

NUM_PRB = 100
SUBFRAMES = 64
SEED = 0
#: Two-sided coverage of the binomial interval.
COVERAGE = 0.999


def gray_qam_ber(order: int, snr_db: float) -> float:
    """Exact BER of Gray-mapped square ``order``-QAM at Es/N0 = ``snr_db``
    (Cho & Yoon 2002, eq. 14-16)."""
    rho = 10.0 ** (snr_db / 10.0)
    side = math.isqrt(order)
    bits_per_axis = side.bit_length() - 1
    scale = math.sqrt(3.0 * rho / (2.0 * (order - 1)))
    total = 0.0
    for k in range(1, bits_per_axis + 1):
        step = 2 ** (k - 1)
        for i in range(int((1 - 2.0**-k) * side)):
            weight = (-1) ** (i * step // side) * (
                step - math.floor(i * step / side + 0.5)
            )
            total += weight * erfc((2 * i + 1) * scale) / side
    return total / bits_per_axis


def effective_snr_db(snr_db: float, num_subcarriers: int) -> float:
    """ρ_eff in dB for the default estimator's window over the allocation."""
    keep, back, _ = ChestConfig().window_lengths(num_subcarriers)
    window = (keep + back) / num_subcarriers
    rho = 10.0 ** (snr_db / 10.0)
    error_variance = window / rho
    return 10.0 * math.log10(rho / (1.0 + error_variance * (1.0 + rho)))


def count_bit_errors(modulation: Modulation, snr_db: float) -> tuple[int, int]:
    rng = np.random.default_rng(SEED)
    allocation = UserAllocation(num_prb=NUM_PRB, layers=1, modulation=modulation)
    channel = ChannelRealization(
        response=np.ones((1, 1, allocation.num_subcarriers), dtype=np.complex128),
        noise_variance=10.0 ** (-snr_db / 10.0),
    )
    errors = bits = 0
    for _ in range(SUBFRAMES):
        payload = random_payload(allocation, rng)
        sent = transmit_subframe(allocation, payload, rng)
        result = process_user(allocation, channel.apply(sent.grid, rng))
        errors += int(np.count_nonzero(result.payload != payload))
        bits += payload.size
    return errors, bits


def test_closed_form_matches_textbook_points():
    # QPSK: Q(sqrt(ρ)) per bit.
    assert gray_qam_ber(4, 6.0) == pytest.approx(
        0.5 * erfc(math.sqrt(10**0.6 / 2)), rel=1e-12
    )
    # 16-QAM nearest-neighbour form (3/4)·Q(sqrt(ρ/5)) holds at high SNR.
    assert gray_qam_ber(16, 20.0) == pytest.approx(
        0.75 * 0.5 * erfc(math.sqrt(100 / 10)), rel=1e-3
    )


# Two SNRs a modulation, where the perfect-CSI BER is ~2e-2 and ~2e-3.
CASES = [
    pytest.param(
        Modulation.QPSK, 6.0,
        marks=pytest.mark.xfail(
            strict=True,
            reason="measured loss 1.00 dB against a 0.92 dB allowance: the "
            "first-order allowance misses the low-SNR noise enhancement of "
            "a noisy estimate (docs/measurements.md, the AWGN oracle)",
        ),
    ),
    (Modulation.QPSK, 9.0),
    (Modulation.QAM16, 12.0),
    (Modulation.QAM16, 15.0),
    (Modulation.QAM64, 18.0),
    (Modulation.QAM64, 21.0),
]


@pytest.mark.parametrize("modulation, snr_db", CASES)
def test_uncoded_ber_inside_the_awgn_band(modulation, snr_db):
    errors, bits = count_bit_errors(modulation, snr_db)
    order = 2**modulation.bits_per_symbol
    num_sc = UserAllocation(NUM_PRB, 1, modulation).num_subcarriers
    tail = (1.0 - COVERAGE) / 2.0
    lowest = binom.ppf(tail, bits, gray_qam_ber(order, snr_db))
    highest = binom.ppf(
        1.0 - tail, bits, gray_qam_ber(order, effective_snr_db(snr_db, num_sc))
    )
    assert lowest <= errors <= highest, (
        f"{errors} errors in {bits} bits, band [{lowest:.0f}, {highest:.0f}]"
    )
