"""Tests for the Fig. 6 / Fig. 10 input parameter models."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.params import MAX_PRB, MAX_USERS_PER_SUBFRAME, MIN_PRB_PER_USER, Modulation
from repro.uplink.parameter_model import (
    DEFAULT_TOTAL_SUBFRAMES,
    MAX_PROBABILITY,
    MIN_PROBABILITY,
    PROBABILITY_STEP_SUBFRAMES,
    RandomizedParameterModel,
    SteadyStateParameterModel,
    TraceParameterModel,
)
from repro.serve.arrivals import ARRIVAL_KINDS, make_arrivals
from repro.uplink.scenarios import DiurnalParameterModel
from repro.uplink.user import UserParameters


class TestDefaults:
    def test_paper_constants(self):
        assert DEFAULT_TOTAL_SUBFRAMES == 68_000
        assert PROBABILITY_STEP_SUBFRAMES == 200
        assert MIN_PROBABILITY == pytest.approx(0.006)
        assert MAX_PROBABILITY == 1.0


class TestProbabilityRamp:
    def test_starts_at_minimum(self):
        model = RandomizedParameterModel()
        assert model.current_probability(0) == pytest.approx(MIN_PROBABILITY)

    def test_peaks_at_half_cycle(self):
        model = RandomizedParameterModel()
        assert model.current_probability(34_000) == pytest.approx(MAX_PROBABILITY)

    def test_symmetric_triangle(self):
        model = RandomizedParameterModel()
        up = model.current_probability(10_000)
        down = model.current_probability(58_000)
        assert up == pytest.approx(down)

    def test_steps_every_200_subframes(self):
        model = RandomizedParameterModel()
        assert model.current_probability(0) == model.current_probability(199)
        assert model.current_probability(200) > model.current_probability(199)

    def test_monotone_on_upward_half(self):
        model = RandomizedParameterModel()
        probs = [model.current_probability(i) for i in range(0, 34_001, 200)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_monotone_decreasing_on_second_half(self):
        model = RandomizedParameterModel()
        probs = [model.current_probability(i) for i in range(34_000, 68_000, 200)]
        assert all(b <= a for a, b in zip(probs, probs[1:]))

    def test_wraps_after_full_cycle(self):
        model = RandomizedParameterModel()
        assert model.current_probability(68_000) == pytest.approx(
            model.current_probability(0)
        )

    def test_scaled_cycle_keeps_shape(self):
        model = RandomizedParameterModel(total_subframes=6_800)
        assert model.current_probability(3_400) == pytest.approx(MAX_PROBABILITY)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            RandomizedParameterModel().current_probability(-1)


class TestUserGeneration:
    def test_respects_user_and_prb_limits(self):
        for budget in (MAX_PRB, MAX_PRB // 2):
            model = RandomizedParameterModel(seed=3, max_prb=budget)
            for index in range(0, 68_000, 997):
                users = model.uplink_parameters(index)
                assert 1 <= len(users) <= MAX_USERS_PER_SUBFRAME
                total = sum(u.num_prb for u in users)
                assert total <= budget
                for user in users:
                    assert MIN_PRB_PER_USER <= user.num_prb <= budget
                    assert 1 <= user.layers <= 4

    def test_deterministic_and_random_access(self):
        a = RandomizedParameterModel(seed=11)
        b = RandomizedParameterModel(seed=11)
        assert a.uplink_parameters(123) == b.uplink_parameters(123)
        # Random access: computing 500 directly equals computing it after 0.
        direct = a.uplink_parameters(500)
        b.uplink_parameters(0)
        assert b.uplink_parameters(500) == direct

    def test_different_seeds_differ(self):
        a = RandomizedParameterModel(seed=1).uplink_parameters(42)
        b = RandomizedParameterModel(seed=2).uplink_parameters(42)
        assert a != b

    def test_low_probability_users_are_simple(self):
        """At the ramp's start nearly all users are 1-layer QPSK."""
        model = RandomizedParameterModel(seed=5)
        users = [u for i in range(0, 400, 7) for u in model.uplink_parameters(i)]
        qpsk = sum(u.modulation is Modulation.QPSK for u in users)
        single = sum(u.layers == 1 for u in users)
        assert qpsk / len(users) > 0.95
        assert single / len(users) > 0.95

    def test_peak_probability_users_are_maximal(self):
        """At the peak every user has 4 layers and 64-QAM (Section V-A)."""
        model = RandomizedParameterModel(seed=5)
        users = model.uplink_parameters(34_000)
        assert all(u.layers == 4 for u in users)
        assert all(u.modulation is Modulation.QAM64 for u in users)

    def test_user_count_varies(self):
        model = RandomizedParameterModel(seed=9)
        counts = {len(model.uplink_parameters(i)) for i in range(0, 5000, 13)}
        assert len(counts) >= 5  # "varies constantly and rapidly" (Fig. 7)

    def test_prb_spread_is_large(self):
        """Fig. 8: max PRBs per user reaches high values, min stays small."""
        model = RandomizedParameterModel(seed=2)
        maxima = []
        minima = []
        for i in range(0, 20_000, 11):
            users = model.uplink_parameters(i)
            maxima.append(max(u.num_prb for u in users))
            minima.append(min(u.num_prb for u in users))
        assert max(maxima) >= 150
        assert min(minima) == MIN_PRB_PER_USER

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomizedParameterModel(total_subframes=1)
        with pytest.raises(ValueError):
            RandomizedParameterModel(max_users=0)
        with pytest.raises(ValueError):
            RandomizedParameterModel(probability_step=0)

    def test_iter_subframes(self):
        model = RandomizedParameterModel(seed=4)
        collected = list(model.iter_subframes(count=5, start=10))
        assert len(collected) == 5
        assert collected[0] == model.uplink_parameters(10)


class TestSteadyState:
    def test_single_fixed_user(self):
        model = SteadyStateParameterModel(40, 2, Modulation.QAM16)
        for i in (0, 5, 1000):
            users = model.uplink_parameters(i)
            assert len(users) == 1
            assert users[0].num_prb == 40
            assert users[0].layers == 2
            assert users[0].modulation is Modulation.QAM16

    def test_validates_via_user_parameters(self):
        model = SteadyStateParameterModel(1, 1, Modulation.QPSK)
        with pytest.raises(ValueError):
            model.uplink_parameters(0)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            SteadyStateParameterModel(4, 1, Modulation.QPSK).uplink_parameters(-1)


class TestTraceModel:
    def test_replays_and_wraps(self):
        u = UserParameters(0, 4, 1, Modulation.QPSK)
        v = UserParameters(0, 8, 2, Modulation.QAM16)
        model = TraceParameterModel([[u], [v]])
        assert model.uplink_parameters(0) == [u]
        assert model.uplink_parameters(1) == [v]
        assert model.uplink_parameters(2) == [u]
        assert len(model) == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TraceParameterModel([])

    def test_returns_copies(self):
        u = UserParameters(0, 4, 1, Modulation.QPSK)
        model = TraceParameterModel([[u]])
        got = model.uplink_parameters(0)
        got.append(u)
        assert len(model.uplink_parameters(0)) == 1


@given(seed=st.integers(0, 2**20), index=st.integers(0, 200_000))
@settings(max_examples=50, deadline=None)
def test_property_model_always_valid(seed, index):
    model = RandomizedParameterModel(seed=seed)
    users = model.uplink_parameters(index)
    assert 1 <= len(users) <= MAX_USERS_PER_SUBFRAME
    assert sum(u.num_prb for u in users) <= MAX_PRB
    for user in users:
        assert user.num_prb % 2 == 0
        assert user.num_prb >= MIN_PRB_PER_USER


def _draws_digest() -> str:
    """One SHA-256 over every Fig. 6 / Fig. 10 user draw in the repo: the
    randomized model at the full and a 160-PRB budget, the diurnal model,
    and serve's four arrival kinds under both traffic mixes, seeds 0-2."""
    draws = []
    for seed in range(3):
        for max_prb in (MAX_PRB, 160):
            model = RandomizedParameterModel(1_200, seed=seed, max_prb=max_prb)
            draws.append(model.uplink_parameters)
        draws.append(DiurnalParameterModel(2_400, seed=seed).uplink_parameters)
        for kind in ARRIVAL_KINDS:
            for mix in ("mmtc", "mixed"):
                arrivals = make_arrivals(kind, seed, total_subframes=1_200, mix=mix)
                draws.append(arrivals.uplink_parameters)
    digest = hashlib.sha256()
    for draw in draws:
        for index in range(0, 2_400, 37):
            for user in draw(index):
                digest.update(
                    f"{index}:{user.user_id}:{user.num_prb}:{user.layers}:"
                    f"{user.modulation.value};".encode()
                )
    return digest.hexdigest()


def test_every_user_draw_is_pinned():
    """The randomized, diurnal and serve ``mixed`` draws share one Fig. 6
    loop; any change to its RNG consumption order changes this digest."""
    assert _draws_digest() == (
        "c0fb6ece58e2ac9add008d6f204f6a8c429cfc7dc70b6fba32e9c34dcf9c2bf5"
    )
