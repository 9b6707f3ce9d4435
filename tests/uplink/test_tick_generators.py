"""Bulk-seeded tick generators against NumPy's own per-tick seeding.

The oracle is ``np.random.default_rng((*key, tick))``, built fresh for
every draw: it shares no code with :class:`TickGenerators`, so a wrong
constant, word order or carry in the vectorized seeding shows here as a
different draw.
"""

import numpy as np
import pytest

from repro.phy.params import (
    MAX_PRB,
    MAX_USERS_PER_SUBFRAME,
    MIN_PRB_PER_USER,
    Modulation,
)
from repro.serve.arrivals import (
    DiurnalArrivals,
    MmtcBurstArrivals,
    PoissonArrivals,
)
from repro.uplink.parameter_model import (
    RandomizedParameterModel,
    TickGenerators,
    draw_users,
)
from repro.uplink.scenarios import DiurnalParameterModel
from repro.uplink.user import UserParameters

#: Seeds 0 and 1, cell 1's stride from seed 1, and two seeds of more than
#: one 32-bit word.
SEEDS = (0, 1, 1 + 1_000_003, 2**32 + 5, 2**40 + 3)

#: The stream salts in use: none (the randomized and diurnal parameter
#: models), Poisson, diurnal arrivals, mMTC surge and mMTC background.
STREAMS = ((), (2,), (3,), (4,), (5,))

#: Block edges, the paper's run length, and the two neighbours of the
#: 2**32 word-width boundary.
TICKS = (0, 1_023, 1_024, 68_000, 2**32 - 1, 2**32)

MEANS = (0.5, 2.0, 6.0, 60.0)

#: An all-mMTC subframe fills the carrier with this many devices.
MAX_DEVICES = MAX_PRB // MIN_PRB_PER_USER


def _draws(rng: np.random.Generator) -> tuple:
    return (
        *(int(rng.poisson(mean)) for mean in MEANS),
        rng.random(),
        int(rng.integers(0, 1_000_000)),
        tuple(rng.integers(0, 2**40, size=3).tolist()),
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream", STREAMS)
def test_every_draw_matches_a_fresh_default_rng(seed, stream):
    key = (seed, *stream)
    ticks = TickGenerators(*key)
    for tick in TICKS:
        assert _draws(ticks.gen(tick)) == _draws(np.random.default_rng((*key, tick)))


@pytest.mark.parametrize("seed", SEEDS)
def test_the_mixed_users_draw_matches(seed):
    ticks = TickGenerators(seed, 2)
    for tick in TICKS:
        oracle = np.random.default_rng((seed, 2, tick))
        assert draw_users(ticks.gen(tick), 20, MAX_PRB, 0.5) == draw_users(
            oracle, 20, MAX_PRB, 0.5
        )


def test_random_access_in_any_order():
    ticks = TickGenerators(7, 5)
    for tick in (900, 3, 900, 5_000, 3, 2**20 + 3, 900):
        assert ticks.gen(tick).random() == np.random.default_rng((7, 5, tick)).random()


def test_ticks_of_many_blocks_still_match():
    """More blocks than the cache keeps, then back to the first."""
    ticks = TickGenerators(1, 2)
    for tick in (*range(0, 12 * 1_024, 1_000), 0, 5):
        assert ticks.gen(tick).random() == np.random.default_rng((1, 2, tick)).random()


def test_two_objects_drawn_interleaved_stay_independent():
    burst, base = TickGenerators(3, 4), TickGenerators(3, 5)
    for tick in range(40):
        base_rng = base.gen(tick)
        first = base_rng.random()
        burst_draw = burst.gen(tick).poisson(6.0)
        second = base_rng.random()
        oracle = np.random.default_rng((3, 5, tick))
        assert (first, second) == (oracle.random(), oracle.random())
        assert burst_draw == np.random.default_rng((3, 4, tick)).poisson(6.0)


@pytest.mark.parametrize("key, tick", [((-1, 2), 0), ((1, 2), -1)])
def test_negative_keys_raise_as_default_rng_does(key, tick):
    with pytest.raises(ValueError):
        np.random.default_rng((*key, tick))
    with pytest.raises(ValueError):
        TickGenerators(*key).gen(tick)


def _users(rng: np.random.Generator, count: int, mix: str) -> list[UserParameters]:
    """A tick's users built fresh, as the per-tick form built them."""
    if mix == "mixed":
        return draw_users(rng, count, MAX_PRB, 0.5)
    return [
        UserParameters(user_id, MIN_PRB_PER_USER, 1, Modulation.QPSK)
        for user_id in range(count)
    ]


def _randomized_reference(model, tick):
    rng = np.random.default_rng((model.seed, tick))
    return draw_users(
        rng, model.max_users, model.max_prb, model.current_probability(tick)
    )


def _diurnal_model_reference(model, tick):
    load = model.load_at(tick)
    budget = max(MIN_PRB_PER_USER, int(round(load * MAX_PRB)))
    budget -= budget % 2
    users_cap = max(1, int(round(load * MAX_USERS_PER_SUBFRAME)))
    rng = np.random.default_rng((model.seed, tick))
    return draw_users(rng, users_cap, budget, max(0.006, min(1.0, load)))


def _poisson_reference(model, tick):
    rng = np.random.default_rng((model.seed, 2, tick))
    return _users(rng, int(min(rng.poisson(model.rate), MAX_DEVICES)), model.mix)


def _diurnal_arrivals_reference(model, tick):
    rng = np.random.default_rng((model.seed, 3, tick))
    count = int(min(rng.poisson(model.intensity(tick)), MAX_DEVICES))
    return _users(rng, count, model.mix)


def _mmtc_reference(model, tick):
    rng = np.random.default_rng((model.seed, 5, tick))
    count = int(rng.poisson(model.base_rate))
    if model.in_burst(tick):
        burst = np.random.default_rng((model.seed, 4, tick))
        count += int(burst.poisson(model.burst_size / model.burst_window))
    return _users(rng, min(count, MAX_DEVICES), model.mix)


@pytest.mark.parametrize(
    "build, reference",
    [
        (lambda seed, mix: RandomizedParameterModel(1_200, seed=seed), _randomized_reference),
        (lambda seed, mix: DiurnalParameterModel(2_400, seed=seed), _diurnal_model_reference),
        (lambda seed, mix: PoissonArrivals(4.0, seed=seed, mix=mix), _poisson_reference),
        (
            lambda seed, mix: DiurnalArrivals(50_000.0, seed=seed, mix=mix),
            _diurnal_arrivals_reference,
        ),
        (
            lambda seed, mix: MmtcBurstArrivals(1.0, seed=seed, mix=mix),
            _mmtc_reference,
        ),
    ],
    ids=["randomized", "diurnal-model", "poisson", "diurnal-arrivals", "mmtc-burst"],
)
@pytest.mark.parametrize("mix", ["mmtc", "mixed"])
@pytest.mark.parametrize("seed", [1, 2**32 + 5])
def test_each_model_equals_its_default_rng_reference(build, reference, mix, seed):
    model = build(seed, mix)
    for tick in range(200):
        assert model.uplink_parameters(tick) == reference(model, tick), tick
