"""Tests for subframe input data (pool + synthesized)."""

import hashlib

import numpy as np
import pytest

from repro.phy.params import CellConfig, Modulation
from repro.uplink import subframe
from repro.uplink.subframe import (
    POOL_SIZE,
    SubframeFactory,
    UserSlice,
    assign_offsets,
)
from repro.uplink.user import UserParameters


def users_fixture():
    return [
        UserParameters(0, 24, 2, Modulation.QAM16),
        UserParameters(1, 8, 1, Modulation.QPSK),
        UserParameters(2, 40, 4, Modulation.QAM64),
    ]


class TestAssignOffsets:
    def test_contiguous_packing(self):
        slices = assign_offsets(users_fixture(), CellConfig())
        assert slices[0].subcarrier_offset == 0
        assert slices[1].subcarrier_offset == slices[0].num_subcarriers
        assert (
            slices[2].subcarrier_offset
            == slices[0].num_subcarriers + slices[1].num_subcarriers
        )

    def test_rejects_overflow(self):
        too_many = [UserParameters(i, 200, 1, Modulation.QPSK) for i in range(2)]
        with pytest.raises(ValueError):
            assign_offsets(too_many, CellConfig())

    def test_full_carrier_fits_exactly(self):
        users = [UserParameters(0, 200, 1, Modulation.QPSK)]
        slices = assign_offsets(users, CellConfig())
        assert slices[0].num_subcarriers == 1200

    def test_view_extracts_right_columns(self):
        slices = assign_offsets(users_fixture(), CellConfig())
        grid = np.arange(4 * 14 * 1200, dtype=float).reshape(4, 14, 1200)
        view = slices[1].view(grid)
        lo = slices[1].subcarrier_offset
        assert view.shape == (4, 14, slices[1].num_subcarriers)
        assert np.array_equal(view, grid[:, :, lo : lo + view.shape[2]])


class TestAllocationIsBuiltOnce:
    """``UserParameters.allocation`` is cached per user and the slice width
    comes from ``num_prb`` directly; nothing else about the value changes."""

    def test_one_validated_allocation_per_user(self, monkeypatch):
        from repro.phy import transmitter

        built = []
        validate = transmitter.validate_allocation
        monkeypatch.setattr(
            transmitter,
            "validate_allocation",
            lambda *args: (built.append(args), validate(*args))[1],
        )
        users = users_fixture()
        slices = assign_offsets(users, CellConfig())
        grid = np.zeros((2, 14, 1200))
        for user_slice in slices:
            assert user_slice.view(grid).shape[2] == user_slice.num_subcarriers
        assert built == []  # widths need no allocation at all
        for user in users:
            assert user.allocation is user.allocation
            assert user.allocation.num_subcarriers == user.num_subcarriers
        assert len(built) == len(users)

    def test_equality_hash_and_pickle_do_not_see_the_cache(self):
        import pickle

        touched, fresh = users_fixture()[0], users_fixture()[0]
        cold = pickle.dumps(fresh)
        assert touched.allocation.num_prb == touched.num_prb
        assert touched == fresh and hash(touched) == hash(fresh)
        assert len({touched, fresh}) == 1
        assert pickle.dumps(touched) == cold  # the wire to spawned workers
        clone = pickle.loads(pickle.dumps(touched))
        assert clone == touched and clone.allocation == touched.allocation
        assert UserSlice(clone, 12) == UserSlice(touched, 12)
        with pytest.raises(AttributeError):
            touched.num_prb = 2  # still frozen


class TestPoolMode:
    def test_pool_size_default(self):
        assert POOL_SIZE == 10

    def test_pool_reused_round_robin(self):
        factory = SubframeFactory(seed=1)
        users = users_fixture()
        a = factory.from_pool(users, 0)
        b = factory.from_pool(users, POOL_SIZE)
        c = factory.from_pool(users, 1)
        assert a.grid is b.grid  # same pooled buffer
        assert a.grid is not c.grid

    def test_pool_grids_are_unique(self):
        """"assuring that all subframes being processed in parallel have
        unique data" — pool entries must differ."""
        factory = SubframeFactory(seed=2)
        users = users_fixture()
        grids = [factory.from_pool(users, i).grid for i in range(POOL_SIZE)]
        for i in range(POOL_SIZE):
            for j in range(i + 1, POOL_SIZE):
                assert not np.array_equal(grids[i], grids[j])

    def test_grid_shape(self):
        factory = SubframeFactory(seed=0)
        sub = factory.from_pool(users_fixture(), 0)
        assert sub.grid.shape == (4, 14, 1200)

    def test_deterministic_across_factories(self):
        a = SubframeFactory(seed=5).from_pool(users_fixture(), 2)
        b = SubframeFactory(seed=5).from_pool(users_fixture(), 2)
        assert np.array_equal(a.grid, b.grid)

    def test_total_prb(self):
        sub = SubframeFactory(seed=0).from_pool(users_fixture(), 0)
        assert sub.total_prb == 24 + 8 + 40


def _pool_digest(factory: SubframeFactory) -> str:
    digest = hashlib.sha256()
    for index in range(POOL_SIZE):
        digest.update(factory.from_pool([], index).grid.tobytes())
    return digest.hexdigest()


class TestPoolIsBuiltOncePerProcess:
    """The §IV-B1 pool is a process-wide read-only table keyed by
    (seed, antennas, subcarriers): same bits as ever, built once."""

    #: SHA-256 over the ten default-cell grids' bytes, in pool order.
    DIGESTS = {
        0: "d0f6421328d02a5fb8b4b3dc5c1e67847248329f8598f4fdfb436044de31cda0",
        1: "3096e52386b869b0c0b2bc0a4d0832bbf71e92fb7c43f50491e2a636436b7be2",
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_pool_bits_are_pinned(self, seed):
        assert _pool_digest(SubframeFactory(seed=seed)) == self.DIGESTS[seed]

    def test_same_key_shares_the_arrays(self):
        a, b = SubframeFactory(seed=11), SubframeFactory(seed=11)
        for index in range(POOL_SIZE):
            assert a.from_pool([], index).grid is b.from_pool([], index).grid

    def test_pool_grids_are_read_only(self):
        grid = SubframeFactory(seed=11).from_pool(users_fixture(), 0).grid
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            grid *= 2.0

    @pytest.mark.parametrize(
        "other",
        [
            dict(seed=12),
            dict(seed=11, cell=CellConfig(num_rx_antennas=2)),
        ],
        ids=["seed", "antennas"],
    )
    def test_another_key_gets_its_own_pool(self, other):
        base = SubframeFactory(seed=11).from_pool([], 0).grid
        grid = SubframeFactory(**other).from_pool([], 0).grid
        assert grid is not base
        assert not np.shares_memory(grid, base)

    def test_the_table_bound_is_a_module_constant(self):
        info = subframe._input_pool.cache_info()
        assert info.maxsize == subframe._POOL_CACHE_SIZE
        assert 1 <= subframe._POOL_CACHE_SIZE <= 8  # <= ~86 MB of grids


class TestSynthesize:
    def test_expected_payloads_recorded(self):
        factory = SubframeFactory(seed=3)
        sub = factory.synthesize(users_fixture(), 0)
        assert set(sub.expected_payloads) == {0, 1, 2}
        for payload in sub.expected_payloads.values():
            assert payload.size > 0
            assert set(np.unique(payload)) <= {0, 1}

    def test_unallocated_spectrum_is_silent(self):
        factory = SubframeFactory(seed=3)
        users = users_fixture()
        sub = factory.synthesize(users, 0)
        used = sum(u.allocation.num_subcarriers for u in users)
        assert np.allclose(sub.grid[:, :, used:], 0.0)
        assert not np.allclose(sub.grid[:, :, :used], 0.0)

    def test_deterministic(self):
        a = SubframeFactory(seed=4).synthesize(users_fixture(), 7)
        b = SubframeFactory(seed=4).synthesize(users_fixture(), 7)
        assert np.array_equal(a.grid, b.grid)

    def test_different_subframes_differ(self):
        factory = SubframeFactory(seed=4)
        a = factory.synthesize(users_fixture(), 0)
        b = factory.synthesize(users_fixture(), 1)
        assert not np.array_equal(a.grid, b.grid)

    def test_users_property(self):
        sub = SubframeFactory(seed=0).synthesize(users_fixture(), 0)
        assert sub.users == users_fixture()
