"""Stage-major ragged batching of the vectorized backend.

Only the FFT stages need users to agree on a subcarrier count; the
combiner runs once per ``(antennas, layers)`` over the users' channels laid
end to end, the demapper once per modulation over their streams laid end to
end. None of that may show: every user is bit-identical — payload,
``crc_ok`` and soft values — to the same user processed alone, and the
kernels are called exactly as often as the batching keys say.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import repro.phy.batched
import repro.phy.equalizer
import repro.phy.modulation
import repro.uplink.vectorized
from repro.phy import random_payload, transmit_subframe
from repro.phy.params import Modulation
from repro.uplink import (
    SubframeFactory,
    UserParameters,
    process_subframe_serial,
    process_subframe_vectorized,
    process_subframes,
)

QPSK, QAM16, QAM64 = Modulation.QPSK, Modulation.QAM16, Modulation.QAM64

# (prb, layers, modulation): 5 front groups (users 2 and 3 differ only in
# modulation, users 5 and 6 share a shape), 3 layer counts, 3 modulations.
SEVEN_USERS = (
    (2, 1, QPSK),
    (4, 1, QAM16),
    (6, 2, QPSK),
    (6, 2, QAM16),
    (10, 2, QAM64),
    (8, 4, QAM64),
    (8, 4, QAM64),
)
# One layer count, every PRB count and modulation different.
SAME_LAYERS = ((2, 2, QPSK), (4, 2, QAM16), (6, 2, QAM64), (12, 2, QAM16), (26, 2, QPSK))


def synthesize(shapes, seed=3, index=0):
    users = [UserParameters(uid, *shape) for uid, shape in enumerate(shapes)]
    return SubframeFactory(seed=seed).synthesize(users, index)


def assert_same_user(got, want):
    assert got.user_id == want.user_id
    assert got.crc_ok == want.crc_ok
    assert got.payload.dtype == want.payload.dtype
    assert np.array_equal(got.payload, want.payload)
    assert np.array_equal(got.llrs, want.llrs, equal_nan=True)


def vectorized_alone(subframe, user_slice):
    """``user_slice`` through the vectorized backend in a call of its own."""
    alone = dataclasses.replace(subframe, slices=[user_slice])
    [result] = process_subframes([alone], backend="vectorized")
    return result.user_results[0]


def assert_users_equal_alone(subframe, result):
    """Every user of ``result`` equals the serial subframe, which runs
    ``process_user`` on each slice alone."""
    serial = process_subframe_serial(subframe)
    assert len(result.user_results) == len(subframe.slices)
    for got, want in zip(result.user_results, serial.user_results):
        assert_same_user(got, want)


class TestRaggedEqualsAlone:
    @pytest.mark.parametrize("shapes", [SAME_LAYERS, SEVEN_USERS], ids=["same_layers", "seven"])
    def test_one_subframe(self, shapes):
        subframe = synthesize(shapes)
        result = process_subframe_vectorized(subframe)
        assert_users_equal_alone(subframe, result)
        uncoded_ok = [
            r.crc_ok for r, s in zip(result.user_results, shapes) if s[2] is not QAM64
        ]
        assert uncoded_ok and all(uncoded_ok)

    def test_antenna_counts_mixed_across_subframes(self):
        """A 4-antenna and a 2-antenna cell in one call: same layer counts
        and modulations, so only the antenna count keeps their bundles
        apart (the demap streams are shared)."""
        four = synthesize(SAME_LAYERS, seed=4)
        two = synthesize(SAME_LAYERS[:3] + ((2, 1, QPSK),), seed=5, index=1)
        two = dataclasses.replace(two, grid=two.grid[:2])
        again = synthesize(SEVEN_USERS, seed=6, index=2)
        batch = [four, two, again]
        for subframe, result in zip(
            batch, process_subframes(batch, backend="vectorized")
        ):
            assert_users_equal_alone(subframe, result)


class TestSingularUserInABundle:
    def test_neighbours_of_other_shapes_are_untouched(self):
        """The rank-deficient user of ``TestSingularUser`` (both layers
        through one noiseless flat path in slot 0) now shares its combiner
        call with 2-layer users of *other* widths and its demap call with
        other 16QAM users: it gets NaN in its own columns, they are
        bit-identical to running alone, and nothing warns."""
        shapes = ((4, 2, QAM16), (8, 2, QAM16), (2, 2, QAM16), (8, 2, QPSK), (4, 1, QAM16))
        subframe = synthesize(shapes, seed=11)
        victim = subframe.slices[1]
        allocation = victim.user.allocation
        rng = np.random.default_rng(9)
        tx = transmit_subframe(allocation, random_payload(allocation, rng), rng)
        grid = subframe.grid.copy()
        victim.view(grid)[:, :7, :] = 2.0**20 * tx.grid[:, :7, :].sum(axis=0)
        broken = dataclasses.replace(subframe, grid=grid)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = process_subframe_vectorized(broken)
            serial = process_subframe_serial(broken)
            alone = [vectorized_alone(broken, s) for s in broken.slices]
        assert [r.crc_ok for r in result.user_results] == [
            True, False, True, True, True,
        ]
        assert np.isnan(result.user_results[1].llrs).any()
        for got, want, single in zip(result.user_results, serial.user_results, alone):
            assert_same_user(got, want)
            assert_same_user(got, single)
        for position in (0, 2, 3, 4):
            assert np.all(np.isfinite(result.user_results[position].llrs))


class TestKernelCallCounts:
    """The batching keys, counted: how often each kernel really runs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"mmse_combiner": 0, "soft_demap": 0, "fft": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        # Wherever the backend may look the kernels up.
        for name, home in (
            ("mmse_combiner", repro.phy.equalizer),
            ("soft_demap", repro.phy.modulation),
        ):
            wrapper = counting(name, getattr(home, name))
            for module in (home, repro.phy.batched, repro.uplink.vectorized):
                monkeypatch.setattr(module, name, wrapper, raising=False)
        monkeypatch.setattr(np.fft, "fft", counting("fft", np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counting("fft", np.fft.ifft))
        return calls

    def test_calls_follow_the_batching_keys(self, calls):
        subframe = synthesize(SEVEN_USERS)
        antennas = subframe.grid.shape[0]
        users = [s.user for s in subframe.slices]
        front_groups = {(antennas, u.num_subcarriers, u.layers) for u in users}
        assert len(front_groups) == 5
        for _ in range(2):  # repeats exactly
            for name in calls:
                calls[name] = 0
            process_subframe_vectorized(subframe)
            assert calls == {
                "mmse_combiner": len({(antennas, u.layers) for u in users}),  # 3
                "soft_demap": len({u.modulation for u in users}),  # 3
                # chest IFFT + FFT, and one data IFFT for both slots.
                "fft": 3 * len(front_groups),
            }


class TestOneGroupCallers:
    def test_process_group_equals_the_ragged_call(self):
        """A subframe of one front group (what a multiprocess worker gets
        when a subframe holds one shape) and a one-slice subframe are the
        staged chain over one group: the same users inside a ragged call
        come out the same."""
        subframe = synthesize(SEVEN_USERS)
        ragged = process_subframe_vectorized(subframe).user_results
        pair = dataclasses.replace(subframe, slices=subframe.slices[5:7])
        [alone] = process_subframes([pair], backend="vectorized")
        for got, want in zip(alone.user_results, ragged[5:7]):
            assert_same_user(got, want)
        for user_slice, want in zip(subframe.slices, ragged):
            assert_same_user(vectorized_alone(subframe, user_slice), want)

    def test_grid_of_the_wrong_width_is_rejected(self):
        subframe = synthesize(SEVEN_USERS[:2])
        last = subframe.slices[-1]
        end = last.subcarrier_offset + last.num_subcarriers
        narrow = dataclasses.replace(subframe, grid=subframe.grid[:, :, : end - 1])
        with pytest.raises(ValueError, match="subcarrier width"):
            process_subframe_vectorized(narrow)
        with pytest.raises(ValueError, match="14 SC-FDMA symbols"):
            process_subframe_vectorized(
                dataclasses.replace(subframe, grid=subframe.grid[:, :13])
            )
