"""Property tests for the arrival processes (ISSUE 9 satellite 1).

Four contracts, one per property class:

* **Seed determinism** — two instances built from the same parameters
  produce identical user lists at every tick (random access, no shared
  state), and a different seed perturbs the stream.
* **Rate correctness** — the empirical mean arrival count of a Poisson
  process over a long window stays within a CLT-sized tolerance of the
  configured rate.
* **Burst confinement** — the mMTC surge component is identically zero
  outside its synchronized window, for every (period, window, tick).
* **Diurnal volume** — the per-tick intensity integrates to exactly the
  configured daily volume over one mapped day.

Expected counts come from each process's own parameters: ``rate``,
``intensity(t)``, and ``base_rate`` plus ``burst_size / burst_window``
inside the burst window.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.arrivals import (
    DiurnalArrivals,
    MmtcBurstArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.uplink.scenarios import DEFAULT_DIURNAL_PROFILE

seeds = st.integers(min_value=0, max_value=2**31 - 1)
ticks = st.integers(min_value=0, max_value=10_000)


def _users_key(users):
    return [(u.user_id, u.num_prb, u.layers, u.modulation) for u in users]


class TestSeedDeterminism:
    @given(kind=st.sampled_from(["poisson", "diurnal", "mmtc"]), seed=seeds, tick=ticks)
    def test_same_seed_same_stream(self, kind, seed, tick):
        a = make_arrivals(kind, seed=seed, rate=3.0, mix="mixed")
        b = make_arrivals(kind, seed=seed, rate=3.0, mix="mixed")
        assert _users_key(a.uplink_parameters(tick)) == _users_key(
            b.uplink_parameters(tick)
        )

    @given(seed=seeds, tick=st.integers(min_value=0, max_value=63))
    def test_constant_same_seed_same_stream(self, seed, tick):
        a = make_arrivals("constant", seed=seed, total_subframes=64)
        b = make_arrivals("constant", seed=seed, total_subframes=64)
        assert _users_key(a.uplink_parameters(tick)) == _users_key(
            b.uplink_parameters(tick)
        )

    @given(seed=st.integers(min_value=0, max_value=2**31 - 2))
    def test_different_seed_perturbs_the_stream(self, seed):
        a = PoissonArrivals(rate=5.0, seed=seed)
        b = PoissonArrivals(rate=5.0, seed=seed + 1)
        assert any(
            len(a.uplink_parameters(t)) != len(b.uplink_parameters(t))
            for t in range(64)
        ), "seed change never altered 64 consecutive arrival counts"

    @given(seed=seeds, tick=ticks)
    def test_random_access_is_order_independent(self, seed, tick):
        """Querying earlier ticks first must not change a later tick."""
        a = PoissonArrivals(rate=4.0, seed=seed)
        fresh = _users_key(a.uplink_parameters(tick))
        b = PoissonArrivals(rate=4.0, seed=seed)
        for t in range(0, min(tick, 5)):
            b.uplink_parameters(t)
        assert _users_key(b.uplink_parameters(tick)) == fresh


class TestRateCorrectness:
    @settings(max_examples=20)
    @given(
        rate=st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
        seed=seeds,
    )
    def test_poisson_empirical_mean_tracks_rate(self, rate, seed):
        window = 600
        arrivals = PoissonArrivals(rate=rate, seed=seed)
        mean = sum(len(arrivals.uplink_parameters(t)) for t in range(window)) / window
        # 5-sigma CLT band: sigma = sqrt(rate / window) for a Poisson mean.
        tolerance = 5.0 * math.sqrt(rate / window)
        assert abs(mean - rate) <= tolerance

    @settings(max_examples=20)
    @given(seed=seeds)
    def test_mmtc_long_run_rate_includes_burst_mass(self, seed):
        arrivals = MmtcBurstArrivals(
            base_rate=1.0,
            burst_size=30.0,
            burst_period=50,
            burst_window=5,
            seed=seed,
        )
        periods = 12
        window = arrivals.burst_period * periods
        total = sum(len(arrivals.uplink_parameters(t)) for t in range(window))
        surge = arrivals.burst_size / arrivals.burst_window
        expected = sum(
            arrivals.base_rate + (surge if arrivals.in_burst(t) else 0.0)
            for t in range(window)
        )
        sigma = math.sqrt(expected)
        assert abs(total - expected) <= 5.0 * sigma


class TestBurstConfinement:
    @given(
        period=st.integers(min_value=1, max_value=500),
        data=st.data(),
        seed=seeds,
        tick=ticks,
    )
    def test_surge_is_zero_outside_the_window(self, period, data, seed, tick):
        window = data.draw(st.integers(min_value=1, max_value=period))
        arrivals = MmtcBurstArrivals(
            burst_period=period, burst_window=window, seed=seed
        )
        if tick % period >= window:
            assert arrivals.burst_count(tick) == 0
        else:
            assert arrivals.burst_count(tick) >= 0

    @given(seed=seeds)
    def test_quiet_ticks_carry_only_background_traffic(self, seed):
        arrivals = MmtcBurstArrivals(
            base_rate=0.0, burst_size=40.0, burst_period=30, burst_window=3,
            seed=seed,
        )
        for tick in range(90):
            if not arrivals.in_burst(tick):
                assert arrivals.uplink_parameters(tick) == []


class TestDiurnalVolume:
    @given(
        daily_users=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
        subframes_per_hour=st.integers(min_value=1, max_value=200),
        seed=seeds,
    )
    def test_intensity_integrates_to_daily_volume(
        self, daily_users, subframes_per_hour, seed
    ):
        arrivals = DiurnalArrivals(
            daily_users=daily_users,
            seed=seed,
            subframes_per_hour=subframes_per_hour,
        )
        day = arrivals.subframes_per_hour * len(DEFAULT_DIURNAL_PROFILE)
        total = sum(arrivals.intensity(t) for t in range(day))
        assert total == pytest.approx(daily_users, rel=1e-9, abs=1e-9)

    @settings(max_examples=20)
    @given(seed=seeds, tick=ticks)
    def test_expected_users_is_the_intensity(self, seed, tick):
        """Over the hour holding ``tick``, the mean arrival count is the
        hour's intensity, within 5 sigma."""
        arrivals = DiurnalArrivals(daily_users=5000.0, seed=seed)
        hour = arrivals.subframes_per_hour
        start = tick - tick % hour
        counts = [
            len(arrivals.uplink_parameters(t)) for t in range(start, start + hour)
        ]
        expected = arrivals.intensity(tick)
        assert abs(sum(counts) / hour - expected) <= 5.0 * math.sqrt(expected / hour)
