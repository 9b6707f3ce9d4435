"""Unit tests for the seeded serve-mode arrival processes."""

import numpy as np
import pytest

from repro.phy.params import MAX_PRB, MIN_PRB_PER_USER
from repro.serve.arrivals import (
    ARRIVAL_KINDS,
    DiurnalArrivals,
    MmtcBurstArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.uplink.parameter_model import RandomizedParameterModel
from repro.uplink.scenarios import DEFAULT_DIURNAL_PROFILE


class TestMakeArrivals:
    @pytest.mark.parametrize(
        "kind, cls",
        zip(
            ARRIVAL_KINDS,
            (
                RandomizedParameterModel,
                PoissonArrivals,
                DiurnalArrivals,
                MmtcBurstArrivals,
            ),
        ),
        ids=ARRIVAL_KINDS,
    )
    def test_builds_every_kind(self, kind, cls):
        assert type(make_arrivals(kind, seed=3)) is cls

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            make_arrivals("bogus")

    def test_constant_threads_total_subframes(self):
        arrivals = make_arrivals("constant", seed=1, total_subframes=40)
        assert arrivals.total_subframes == 40


class TestConstantRateArrivals:
    def test_matches_batch_parameter_model_tick_for_tick(self):
        """Cell 0's constant-rate stream IS the batch workload."""
        arrivals = make_arrivals("constant", seed=9, max_users=4, total_subframes=16)
        model = RandomizedParameterModel(
            total_subframes=16, seed=9, max_users=4
        )
        for tick in range(16):
            assert arrivals.uplink_parameters(tick) == model.uplink_parameters(tick)

    def test_expected_users_is_the_cap(self):
        """The Fig. 6 loop admits users until the PRB budget runs out, so
        the population is the configured cap, never more."""
        arrivals = make_arrivals("constant", seed=0, max_users=4, total_subframes=16)
        sizes = [len(arrivals.uplink_parameters(tick)) for tick in range(16)]
        assert max(sizes) == 4


class TestPoissonArrivals:
    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=-1.0)
        with pytest.raises(ValueError, match="unknown traffic mix"):
            PoissonArrivals(rate=1.0, mix="exotic")

    def test_zero_rate_offers_nobody(self):
        arrivals = PoissonArrivals(rate=0.0, seed=2)
        assert all(arrivals.uplink_parameters(t) == [] for t in range(20))

    def test_count_matches_users(self):
        """Tick ``t`` offers Poisson(rate) users drawn from
        ``default_rng((seed, 2, t))``, capped at the 100 minimum-PRB
        devices that fill the carrier."""
        for rate in (3.0, 120.0):
            arrivals = PoissonArrivals(rate=rate, seed=4)
            sizes = []
            for tick in range(30):
                count = np.random.default_rng((4, 2, tick)).poisson(rate)
                sizes.append(len(arrivals.uplink_parameters(tick)))
                assert sizes[-1] == min(count, 100)
            assert (max(sizes) == 100) is (rate > 100), rate

    def test_negative_tick_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=1.0).uplink_parameters(-1)


class TestDiurnalArrivals:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalArrivals(daily_users=-1.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(daily_users=1.0, subframes_per_hour=0)

    def test_profile_repeats_daily(self):
        arrivals = DiurnalArrivals(daily_users=1000.0, subframes_per_hour=10)
        day = arrivals.subframes_per_hour * len(DEFAULT_DIURNAL_PROFILE)
        for tick in range(25):
            assert arrivals.intensity(tick) == arrivals.intensity(tick + day)

    def test_busy_hour_beats_quiet_hour(self):
        arrivals = DiurnalArrivals(daily_users=1000.0, subframes_per_hour=10)
        weights = DEFAULT_DIURNAL_PROFILE
        busy = weights.index(max(weights)) * arrivals.subframes_per_hour
        quiet = weights.index(min(weights)) * arrivals.subframes_per_hour
        assert arrivals.intensity(busy) > arrivals.intensity(quiet)


class TestMmtcBurstArrivals:
    def test_validation(self):
        with pytest.raises(ValueError):
            MmtcBurstArrivals(base_rate=-0.1)
        with pytest.raises(ValueError):
            MmtcBurstArrivals(burst_period=0)
        with pytest.raises(ValueError):
            MmtcBurstArrivals(burst_period=10, burst_window=11)

    def test_window_membership(self):
        arrivals = MmtcBurstArrivals(burst_period=20, burst_window=5, seed=1)
        for tick in range(60):
            assert arrivals.in_burst(tick) == (tick % 20 < 5)

    def test_expected_users_steps_up_in_window(self):
        """Poisson(base_rate) outside the window; inside it a surge of
        ``burst_size / burst_window`` more a tick, within 5 sigma."""
        arrivals = MmtcBurstArrivals(
            base_rate=1.0, burst_size=50.0, burst_period=20, burst_window=5
        )
        counts = {True: [], False: []}
        for tick in range(2_000):
            users = arrivals.uplink_parameters(tick)
            counts[arrivals.in_burst(tick)].append(len(users))
        for in_window, expected in ((True, 1.0 + 50.0 / 5), (False, 1.0)):
            observed = counts[in_window]
            sigma = np.sqrt(expected / len(observed))
            assert abs(np.mean(observed) - expected) <= 5 * sigma


class TestPrbBudget:
    @pytest.mark.parametrize("mix", ["mmtc", "mixed"])
    def test_generated_subframes_always_fit_the_carrier(self, mix):
        arrivals = PoissonArrivals(rate=80.0, seed=6, mix=mix)
        for tick in range(20):
            users = arrivals.uplink_parameters(tick)
            assert len(users) <= 100  # MAX_PRB / MIN_PRB_PER_USER devices
            assert sum(u.num_prb for u in users) <= MAX_PRB
            assert all(u.num_prb >= MIN_PRB_PER_USER for u in users)
            assert [u.user_id for u in users] == list(range(len(users)))
