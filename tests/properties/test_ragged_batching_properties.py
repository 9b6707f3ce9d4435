"""Property: ragged batching never shows (slow tier, hypothesis).

The vectorized backend lays users of different widths end to end through
one combiner call per layer count and one demap call per modulation. For
*any* multiset of ``(num_prb, layers, modulation)`` users, cut anywhere into
subframes and the subframes cut anywhere into calls, every user's payload,
``crc_ok`` and soft values equal the serial chain's on that user alone.
"""

import functools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.phy import process_user  # noqa: E402
from repro.phy.params import ALL_MODULATIONS  # noqa: E402
from repro.uplink import (  # noqa: E402
    POOL_SIZE,
    SubframeFactory,
    UserParameters,
    process_subframes,
)

pytestmark = pytest.mark.slow

FACTORY = SubframeFactory(seed=13)
SHAPE = st.tuples(
    st.sampled_from([2, 4, 6, 10, 14]),
    st.integers(1, 4),
    st.sampled_from(list(ALL_MODULATIONS)),
)


@functools.lru_cache(maxsize=None)
def alone(pool_index, offset, shape):
    """The serial chain on one user's slice of a pool grid, by itself."""
    user = UserParameters(0, *shape)
    grid = FACTORY.from_pool([], pool_index).grid
    return process_user(
        user.allocation, grid[:, :, offset : offset + user.num_subcarriers]
    )


def cut(items, cuts):
    start = 0
    for stop in [*sorted(cuts), len(items)]:
        if stop > start:
            yield items[start:stop]
        start = stop


@given(data=st.data())
def test_any_multiset_cut_anywhere_equals_the_users_alone(data):
    shapes = data.draw(st.lists(SHAPE, min_size=1, max_size=8))
    subframe_cuts = data.draw(st.sets(st.integers(1, len(shapes)), max_size=3))
    subframes = [
        FACTORY.from_pool(
            [UserParameters(uid, *shape) for uid, shape in enumerate(chunk)], index
        )
        for index, chunk in enumerate(cut(shapes, subframe_cuts))
    ]
    call_cuts = data.draw(st.sets(st.integers(1, len(subframes)), max_size=2))
    results = [
        result
        for call in cut(subframes, call_cuts)
        for result in process_subframes(call, backend="vectorized")
    ]
    assert [r.subframe_index for r in results] == list(range(len(subframes)))
    for subframe, result in zip(subframes, results):
        assert len(result.user_results) == len(subframe.slices)
        for user_slice, got in zip(subframe.slices, result.user_results):
            user = user_slice.user
            want = alone(
                subframe.subframe_index % POOL_SIZE,
                user_slice.subcarrier_offset,
                (user.num_prb, user.layers, user.modulation),
            )
            assert got.user_id == user.user_id
            assert got.crc_ok == want.crc_ok
            assert np.array_equal(got.payload, want.payload)
            assert np.array_equal(got.llrs, want.llrs)
