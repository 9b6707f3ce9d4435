"""Partition invariance of ``process_subframes``.

``process_subframes(batch)`` is the only implementation of the
single-thread backends, and the inline runtime hands it whatever happens to
be queued, so its one promise is that *how subframes are batched never
shows*: every subframe's result — payload, ``crc_ok`` **and** soft values,
bit for bit — equals processing that subframe alone, for both backends,
whatever else shares the call. The seeded cases run in tier-1; the
hypothesis sweep over orders and cut points carries the ``slow`` mark.
"""

import dataclasses
import functools
import warnings

import numpy as np
import pytest

from repro.phy import random_payload, transmit_subframe
from repro.phy.params import Modulation
from repro.uplink import (
    FUNCTIONAL_BACKENDS,
    SubframeFactory,
    UserParameters,
    process_subframe,
    process_subframe_serial,
    process_subframe_vectorized,
    process_subframes,
)

try:
    from hypothesis import given, strategies as st
except ImportError:  # hypothesis is a dev extra: only the sweep needs it
    given = st = None

SEEDS = (0, 7)

# (prb, layers, modulation) per user, one row per subframe. Every subframe
# numbers its users from 0, so user ids repeat across the batch; the mMTC
# shape (1 layer x 24 subcarriers) recurs in four of them, and one
# subframe schedules nobody.
SCENARIO = (
    [(4, 1, Modulation.QPSK), (4, 1, Modulation.QPSK)],
    [(8, 2, Modulation.QAM16), (4, 1, Modulation.QPSK), (8, 2, Modulation.QAM16)],
    [],
    [(4, 1, Modulation.QPSK)],
    [(12, 3, Modulation.QAM64), (8, 2, Modulation.QAM16), (8, 4, Modulation.QAM16)],
    [(4, 1, Modulation.QPSK), (4, 1, Modulation.QAM16), (12, 3, Modulation.QAM64)],
)


@functools.lru_cache(maxsize=None)
def build(seed):
    """The subframes (each with its own synthesized grid) and, per backend,
    every subframe's result processed alone."""
    factory = SubframeFactory(seed=seed)
    subframes = [
        factory.synthesize(
            [UserParameters(uid, *shape) for uid, shape in enumerate(shapes)],
            index,
        )
        for index, shapes in enumerate(SCENARIO)
    ]
    alone = {
        backend: [process_subframe(s, backend=backend) for s in subframes]
        for backend in FUNCTIONAL_BACKENDS
    }
    return subframes, alone


@pytest.fixture(scope="module", params=SEEDS)
def scenario(request):
    return build(request.param)


def assert_identical(results, expected):
    """Same subframes, same users in slice order, same bits, same LLRs."""
    assert len(results) == len(expected)
    for got, want in zip(results, expected):
        assert got.subframe_index == want.subframe_index
        assert got.aborted_user_ids == []
        assert [u.user_id for u in got.user_results] == [
            u.user_id for u in want.user_results
        ]
        for a, b in zip(got.user_results, want.user_results):
            assert a.crc_ok == b.crc_ok
            assert a.payload.dtype == b.payload.dtype
            assert np.array_equal(a.payload, b.payload)
            assert np.array_equal(a.llrs, b.llrs, equal_nan=True)


@pytest.mark.parametrize("backend", FUNCTIONAL_BACKENDS)
class TestPartitionInvariance:
    def test_whole_batch_equals_one_by_one(self, backend, scenario):
        subframes, alone = scenario
        results = process_subframes(subframes, backend=backend)
        assert_identical(results, alone[backend])
        # ... and the two backends agree with each other, as ever.
        assert_identical(results, alone["serial"])
        assert all(u.crc_ok for r in results for u in r.user_results)
        assert results[2].user_results == []  # nobody scheduled: still a result

    def test_every_contiguous_split_and_a_shuffle(self, backend, scenario):
        subframes, alone = scenario
        for cut in range(1, len(subframes)):
            results = process_subframes(
                subframes[:cut], backend=backend
            ) + process_subframes(subframes[cut:], backend=backend)
            assert_identical(results, alone[backend])
        order = [4, 0, 5, 2, 1, 3]
        assert_identical(
            process_subframes([subframes[i] for i in order], backend=backend),
            [alone[backend][i] for i in order],
        )

    def test_single_subframe_callers_are_the_same_function(
        self, backend, scenario
    ):
        subframes, alone = scenario
        one = [process_subframes([s], backend=backend)[0] for s in subframes]
        assert_identical(one, alone[backend])
        named = {
            "serial": process_subframe_serial,
            "vectorized": process_subframe_vectorized,
        }[backend]
        assert_identical([named(s) for s in subframes], alone[backend])

    def test_the_same_subframe_twice_in_one_call(self, backend, scenario):
        subframes, alone = scenario
        results = process_subframes([subframes[1], subframes[1]], backend=backend)
        assert_identical(results, [alone[backend][1]] * 2)

    def test_nothing_in_nothing_out(self, backend):
        assert process_subframes([], backend=backend) == []


def test_unknown_backend_is_rejected(scenario):
    subframes, _ = scenario
    with pytest.raises(ValueError, match="unknown backend 'quantum'"):
        process_subframes(subframes, backend="quantum")
    with pytest.raises(ValueError, match="unknown backend 'quantum'"):
        process_subframe(subframes[0], backend="quantum")


def test_antenna_counts_may_differ_between_subframes(scenario):
    """Two cells' subframes in one call: the stacked grid cannot mix
    antenna counts, so they never share a group."""
    subframes, alone = scenario
    two = dataclasses.replace(subframes[0], grid=subframes[0].grid[:2])
    results = process_subframes([subframes[3], two, subframes[0]], backend="vectorized")
    assert_identical(
        results,
        [alone["vectorized"][3], process_subframe_serial(two), alone["vectorized"][0]],
    )


def test_singular_user_does_not_touch_neighbours_in_other_subframes(scenario):
    """One 2-layer user whose slot-0 channel has rank 1 (both layers through
    one noiseless flat path, loud enough to absorb the regulariser) gets
    NaN weights and fails its CRC; the same-shape users that share its
    group — one in its own subframe, one in *another* — are bit-identical
    to running alone, and nothing warns."""
    subframes, alone = scenario
    victim = subframes[1].slices[0]
    allocation = victim.user.allocation
    rng = np.random.default_rng(9)
    tx = transmit_subframe(allocation, random_payload(allocation, rng), rng)
    grid = subframes[1].grid.copy()
    victim.view(grid)[:, :7, :] = 2.0**20 * tx.grid[:, :7, :].sum(axis=0)
    broken = dataclasses.replace(subframes[1], grid=grid)
    batch = [subframes[4], broken, subframes[0]]
    for backend in FUNCTIONAL_BACKENDS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = process_subframes(batch, backend=backend)
            broken_alone = process_subframe(broken, backend=backend)
        assert_identical(
            results, [alone[backend][4], broken_alone, alone[backend][0]]
        )
        poisoned, *neighbours = results[1].user_results
        assert not poisoned.crc_ok and np.isnan(poisoned.llrs).any()
        # Its own subframe's other users equal the unbroken run's.
        for got, want in zip(neighbours, alone[backend][1].user_results[1:]):
            assert got.crc_ok and np.array_equal(got.llrs, want.llrs)


if given is not None:

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", FUNCTIONAL_BACKENDS)
    @given(data=st.data())
    def test_any_partition_of_any_order(backend, data):
        """Any multiset of the scenario's subframes, in any order, cut into
        any calls: every result equals that subframe alone."""
        subframes, alone = build(3)
        picks = data.draw(
            st.lists(st.integers(0, len(subframes) - 1), min_size=1, max_size=10)
        )
        cuts = sorted(
            data.draw(st.sets(st.integers(1, len(picks)), max_size=len(picks)))
        )
        start = 0
        for stop in [*cuts, len(picks)]:
            chunk = picks[start:stop]
            start = stop
            assert_identical(
                process_subframes([subframes[i] for i in chunk], backend=backend),
                [alone[backend][i] for i in chunk],
            )
