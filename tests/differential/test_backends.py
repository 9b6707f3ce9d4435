"""Cross-backend differential equivalence suite (slow tier).

The gate behind the vectorized fast path: over a seeded scenario matrix
spanning layer counts, modulations, PRB sizes, and user mixes, the
serial reference, the work-stealing thread runtime, the batched
vectorized backend, and the shared-memory multiprocess pool must
produce **identical** CRC verdicts and bit-exact
payloads; soft values must be bit-exact too (and, redundantly, allclose
at 1e-12 — the documented contract).

Run with ``pytest -m slow`` (the CI ``slow-tier`` job); excluded from
tier-1 by the default ``-m "not slow"`` addopts.
"""

import itertools

import numpy as np
import pytest

from repro.phy.params import Modulation
from repro.sched.multiprocess import MultiprocessRuntime
from repro.sched.threaded import ThreadedRuntime
from repro.uplink.serial import process_subframe_serial
from repro.uplink.subframe import SubframeFactory
from repro.uplink.user import UserParameters
from repro.uplink.vectorized import process_subframe_vectorized

pytestmark = pytest.mark.slow

# One user per (layers, modulation, prb) point of the sweep.
LAYER_COUNTS = (1, 2, 4)
MODULATIONS = (Modulation.QPSK, Modulation.QAM16, Modulation.QAM64)
PRB_COUNTS = (4, 16, 40)

# Multi-user mixes: same-shape duplicates exercise cross-user batching,
# the mixed rows exercise group ordering; (prb, layers, modulation) each.
USER_MIXES = {
    "single": [(16, 2, Modulation.QAM16)],
    "duplicates": [(16, 2, Modulation.QAM16)] * 3,
    "mixed": [
        (8, 1, Modulation.QPSK),
        (16, 2, Modulation.QAM16),
        (24, 4, Modulation.QAM64),
        (16, 2, Modulation.QAM16),
        (8, 1, Modulation.QPSK),
        (12, 3, Modulation.QAM64),
    ],
}

SEEDS = (0, 7)

# The ledger rejects duplicate subframe indices, so every subframe fed
# through the shared module-scoped pool needs a globally unique index.
_MP_INDEX = itertools.count()


@pytest.fixture(scope="module")
def mp_pool():
    """One 2-worker spawn pool shared by the multiprocess tests.

    Spawn start-up re-imports NumPy per child (~1 s each); amortizing a
    single pool over the whole matrix keeps the slow tier tractable.
    """
    runtime = MultiprocessRuntime(num_workers=2)
    runtime.start()
    yield runtime
    runtime.close()


def _assert_equivalent(reference, candidate, label):
    assert reference.subframe_index == candidate.subframe_index
    mine = sorted(reference.user_results, key=lambda r: r.user_id)
    theirs = sorted(candidate.user_results, key=lambda r: r.user_id)
    assert len(mine) == len(theirs)
    for a, b in zip(mine, theirs):
        assert a.user_id == b.user_id, label
        assert a.crc_ok == b.crc_ok, f"{label}: CRC verdict differs (user {a.user_id})"
        assert np.array_equal(a.payload, b.payload), (
            f"{label}: payload not bit-exact (user {a.user_id})"
        )
        assert np.array_equal(a.llrs, b.llrs), (
            f"{label}: soft values not bit-exact (user {a.user_id})"
        )
        assert np.allclose(a.llrs, b.llrs, rtol=1e-12, atol=1e-12), label


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("layers", LAYER_COUNTS)
@pytest.mark.parametrize("modulation", MODULATIONS)
@pytest.mark.parametrize("prb", PRB_COUNTS)
def test_single_user_sweep(seed, layers, modulation, prb):
    users = [UserParameters(0, prb, layers, modulation)]
    subframe = SubframeFactory(seed=seed).synthesize(users, 0)
    serial = process_subframe_serial(subframe)
    vectorized = process_subframe_vectorized(subframe)
    label = f"{layers}L/{modulation.value}/{prb}PRB seed={seed}"
    _assert_equivalent(serial, vectorized, label)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mix", sorted(USER_MIXES))
def test_multi_user_mixes_all_backends(seed, mix):
    users = [
        UserParameters(uid, prb, layers, modulation)
        for uid, (prb, layers, modulation) in enumerate(USER_MIXES[mix])
    ]
    factory = SubframeFactory(seed=seed)
    subframes = [factory.synthesize(users, index) for index in range(3)]

    serial = [process_subframe_serial(s) for s in subframes]
    vectorized = [process_subframe_vectorized(s) for s in subframes]
    threaded = ThreadedRuntime(num_workers=4, steal_seed=seed).run(subframes)

    by_index = {r.subframe_index: r for r in threaded}
    for reference, candidate in zip(serial, vectorized):
        _assert_equivalent(reference, candidate, f"vectorized/{mix}/seed={seed}")
    for reference in serial:
        _assert_equivalent(
            reference,
            by_index[reference.subframe_index],
            f"threaded/{mix}/seed={seed}",
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mix", sorted(USER_MIXES))
def test_multiprocess_matches_serial_over_mixes(mp_pool, seed, mix):
    users = [
        UserParameters(uid, prb, layers, modulation)
        for uid, (prb, layers, modulation) in enumerate(USER_MIXES[mix])
    ]
    factory = SubframeFactory(seed=seed)
    subframes = [
        factory.synthesize(users, next(_MP_INDEX)) for _ in range(3)
    ]
    serial = {
        s.subframe_index: process_subframe_serial(s) for s in subframes
    }
    for result in mp_pool.run(subframes):
        _assert_equivalent(
            serial[result.subframe_index],
            result,
            f"multiprocess/{mix}/seed={seed}",
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_multiprocess_randomized_workload_slice(mp_pool, seed):
    from repro.uplink.parameter_model import RandomizedParameterModel

    model = RandomizedParameterModel(total_subframes=64, seed=seed)
    factory = SubframeFactory(seed=seed)
    subframes = [
        factory.synthesize(model.uplink_parameters(model_index), next(_MP_INDEX))
        for model_index in range(24, 32)  # mid-ramp: multi-user subframes
    ]
    serial = {
        s.subframe_index: process_subframe_serial(s) for s in subframes
    }
    for result in mp_pool.run(subframes):
        _assert_equivalent(
            serial[result.subframe_index],
            result,
            f"multiprocess/randomized[{result.subframe_index}] seed={seed}",
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_randomized_workload_slice(seed):
    """The paper's randomized parameter model, straight through both paths."""
    from repro.uplink.parameter_model import RandomizedParameterModel

    model = RandomizedParameterModel(total_subframes=64, seed=seed)
    factory = SubframeFactory(seed=seed)
    for index in range(24, 32):  # mid-ramp: multi-user subframes
        subframe = factory.synthesize(model.uplink_parameters(index), index)
        serial = process_subframe_serial(subframe)
        vectorized = process_subframe_vectorized(subframe)
        _assert_equivalent(serial, vectorized, f"randomized[{index}] seed={seed}")
