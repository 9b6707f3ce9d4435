"""Tier-1 tests for the batched vectorized backend.

Fast equivalence checks plus backend-selection plumbing; the exhaustive
seeded scenario matrix lives in ``tests/differential`` (slow tier).
"""

import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from repro.phy.params import Modulation
from repro.uplink.parameter_model import RandomizedParameterModel, TraceParameterModel
from repro.uplink.serial import (
    FUNCTIONAL_BACKENDS,
    SerialBenchmark,
    process_subframe,
    process_subframe_serial,
)
from repro.uplink.subframe import SubframeFactory, SubframeInput
from repro.uplink.tasks import KERNEL_KINDS
from repro.uplink.user import UserParameters
from repro.uplink.vectorized import (
    _tail_gather,
    process_subframe_vectorized,
    process_subframes,
)


def mixed_users():
    """Two users sharing a shape (cross-user batching) plus two singletons."""
    return [
        UserParameters(0, 8, 1, Modulation.QPSK),
        UserParameters(1, 16, 2, Modulation.QAM16),
        UserParameters(2, 16, 2, Modulation.QAM16),
        UserParameters(3, 4, 4, Modulation.QAM64),
    ]


@pytest.fixture(scope="module")
def subframe():
    return SubframeFactory(seed=11).synthesize(mixed_users(), 0)


class TestBitExactness:
    def test_subframe_matches_serial(self, subframe):
        serial = process_subframe_serial(subframe)
        vectorized = process_subframe_vectorized(subframe)
        assert serial.equals(vectorized)

    def test_payloads_and_llrs_identical(self, subframe):
        serial = process_subframe_serial(subframe)
        vectorized = process_subframe_vectorized(subframe)
        for a, b in zip(serial.user_results, vectorized.user_results):
            assert a.user_id == b.user_id
            assert a.crc_ok == b.crc_ok
            assert np.array_equal(a.payload, b.payload)
            assert np.array_equal(a.llrs, b.llrs)

    def test_results_in_dispatch_order(self, subframe):
        vectorized = process_subframe_vectorized(subframe)
        assert [r.user_id for r in vectorized.user_results] == [
            s.user.user_id for s in subframe.slices
        ]

    def test_single_user_matches_process_user(self):
        from repro.phy import process_user

        users = [UserParameters(0, 12, 2, Modulation.QAM64)]
        subframe = SubframeFactory(seed=3).synthesize(users, 0)
        user_slice = subframe.slices[0]
        expected = process_user(
            user_slice.user.allocation, user_slice.view(subframe.grid), user_id=0
        )
        [vectorized] = process_subframes([subframe], backend="vectorized")
        [result] = vectorized.user_results
        assert result.equals(expected)
        assert np.array_equal(result.llrs, expected.llrs)


class TestFinalizeRoutes:
    """The group tail decodes a modulation's whole stream as one hard
    decision and CRC-checks each block's rows together; every user must
    equal the serial chain."""

    def test_passthrough_payload_dtype_and_crc_type_match_serial(self, subframe):
        serial = process_subframe_serial(subframe)
        vectorized = process_subframe_vectorized(subframe)
        for a, b in zip(serial.user_results, vectorized.user_results):
            assert b.payload.dtype == a.payload.dtype == np.uint8
            assert set(np.unique(b.payload)) <= {0, 1}
            assert type(b.crc_ok) is type(a.crc_ok) is bool
            assert b.llrs.dtype == np.float64 and b.llrs.ndim == 1

    def test_bad_crc_rows_are_flagged_individually(self, subframe):
        """Corrupting one user of the shared-shape group fails only that user."""
        import dataclasses

        grid = subframe.grid.copy()
        victim = subframe.slices[2].view(grid)
        rng = np.random.default_rng(9)
        victim[...] = rng.standard_normal(victim.shape) + 1j * rng.standard_normal(
            victim.shape
        )

        broken = dataclasses.replace(subframe, grid=grid)
        serial = process_subframe_serial(broken)
        vectorized = process_subframe_vectorized(broken)
        assert serial.equals(vectorized)
        assert [r.crc_ok for r in vectorized.user_results] == [
            True, True, False, True,
        ]


class TestSingularUser:
    def test_rank_deficient_user_fails_alone_and_silently(self, subframe):
        """One user of the shared-shape group whose slot-0 channel has rank 1
        (both layers through one noiseless flat path, loud enough to absorb
        the 1e-12): its combiner systems are singular. A LAPACK solve raised
        ``LinAlgError`` for the whole group; the elimination gives that user
        NaN weights, so it fails its CRC and nobody else notices."""
        import dataclasses

        from repro.phy import random_payload, transmit_subframe

        victim, neighbour = subframe.slices[2], subframe.slices[1]
        allocation = victim.user.allocation
        rng = np.random.default_rng(9)
        tx = transmit_subframe(allocation, random_payload(allocation, rng), rng)
        grid = subframe.grid.copy()
        victim.view(grid)[:, :7, :] = 2.0**20 * tx.grid[:, :7, :].sum(axis=0)
        broken = dataclasses.replace(subframe, grid=grid)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            serial = process_subframe_serial(broken)
            vectorized = process_subframe_vectorized(broken)
        assert serial.equals(vectorized)
        assert [r.crc_ok for r in vectorized.user_results] == [
            True, True, False, True,
        ]
        for a, b in zip(serial.user_results, vectorized.user_results):
            assert np.array_equal(a.llrs, b.llrs, equal_nan=True)
        # The group neighbour is bit-identical to running alone.
        [alone_result] = process_subframes(
            [SubframeInput(0, grid, [neighbour])], backend="vectorized"
        )
        [alone] = alone_result.user_results
        assert np.array_equal(vectorized.user_results[1].llrs, alone.llrs)
        assert np.all(np.isfinite(alone.llrs))


class TestNonFiniteLlrs:
    @pytest.mark.parametrize("backend", FUNCTIONAL_BACKENDS)
    def test_all_nan_user_fails_its_crc_and_only_it(self, subframe, backend):
        """A user whose received slice is NaN decodes to 100 % NaN LLRs. A
        hard decision maps NaN to bit 0 and the all-zero block passes
        CRC24A, so it used to read ``crc_ok=True`` and the subframe ``ok``;
        a non-finite LLR must fail that user — and nobody else, not even
        the neighbour stacked into the same shape group."""
        import dataclasses

        victim = subframe.slices[2]  # shares its group with user 1
        grid = subframe.grid.copy()
        victim.view(grid)[...] = np.nan
        broken = dataclasses.replace(subframe, grid=grid)
        with np.errstate(all="ignore"):
            result = process_subframe(broken, backend=backend)
        clean = process_subframe(subframe, backend=backend)
        poisoned = result.user_results[2]
        assert np.isnan(poisoned.llrs).all() and not poisoned.payload.any()
        assert [r.crc_ok for r in clean.user_results] == [True] * 4
        assert [r.crc_ok for r in result.user_results] == [
            True, True, False, True,
        ]
        for position in (0, 1, 3):
            assert result.user_results[position].equals(
                clean.user_results[position]
            )
            assert np.array_equal(
                result.user_results[position].llrs,
                clean.user_results[position].llrs,
            )
        from repro.sched.core import classify

        assert classify(result).value == "crc_failed"
        assert classify(clean).value == "ok"

    @pytest.mark.parametrize("backend", FUNCTIONAL_BACKENDS)
    def test_one_infinite_llr_is_enough(self, backend):
        """±inf soft bits are as meaningless as NaN ones: a single received
        sample at the float limit overflows the distances it touches."""
        users = [UserParameters(0, 4, 1, Modulation.QPSK)]
        subframe = SubframeFactory(seed=5).synthesize(users, 0)
        assert process_subframe(subframe, backend=backend).user_results[0].crc_ok
        subframe.grid[0, 3, 5] = 1e200
        with np.errstate(all="ignore"):
            result = process_subframe(subframe, backend=backend).user_results[0]
        assert not np.isfinite(result.llrs).all()
        assert not result.crc_ok


class TestStageTimer:
    def test_stage_timer_sees_canonical_kernels(self, subframe):
        from contextlib import contextmanager

        seen = []

        @contextmanager
        def stage_timer(kernel, batch):
            seen.append((kernel, batch))
            yield

        process_subframe_vectorized(subframe, stage_timer=stage_timer)
        kernels = {kernel for kernel, _ in seen}
        assert kernels == set(KERNEL_KINDS)
        # One timed span per stage call: three front groups, three layer
        # counts, three modulations here.
        assert len(seen) == 4 * 3
        # The shared-shape group reports batch=2.
        assert max(batch for _, batch in seen) == 2

    def test_every_stage_accounts_for_every_user_once(self):
        """``stage_timer`` is entered with the four kernel kinds only, once
        per stage call (chest and symbol per front group, combiner per
        layer count, finalize per modulation), and each stage's ``batch``
        values add up to the call's users."""
        from collections import Counter

        users = [
            UserParameters(0, 2, 1, Modulation.QPSK),
            UserParameters(1, 6, 2, Modulation.QPSK),
            UserParameters(2, 6, 2, Modulation.QAM16),  # same front group as 1
            UserParameters(3, 10, 2, Modulation.QAM16),
            UserParameters(4, 4, 1, Modulation.QAM16),
            UserParameters(5, 4, 1, Modulation.QAM16),
        ]
        subframe = SubframeFactory(seed=2).synthesize(users, 0)
        seen = []

        def stage_timer(kernel, batch):
            seen.append((kernel, batch))
            return nullcontext()

        timed = process_subframe_vectorized(subframe, stage_timer=stage_timer)
        assert {kernel for kernel, _ in seen} == set(KERNEL_KINDS)
        # Stage-major: a stage is done with every user before the next starts.
        assert [kernel for kernel, _ in seen] == sorted(
            (kernel for kernel, _ in seen), key=KERNEL_KINDS.index
        )
        batches = Counter()
        for kernel, batch in seen:
            batches[kernel] += batch
        assert batches == dict.fromkeys(KERNEL_KINDS, len(users))
        spans = Counter(kernel for kernel, _ in seen)
        assert spans == {"chest": 4, "combiner": 2, "symbol": 4, "finalize": 2}

        # The hook changes no bit of any result.
        plain = process_subframe_vectorized(subframe)
        assert plain.equals(timed)
        for a, b in zip(plain.user_results, timed.user_results):
            assert np.array_equal(a.llrs, b.llrs)


class TestBackendSelection:
    def test_process_subframe_dispatch(self, subframe):
        serial = process_subframe(subframe, backend="serial")
        vectorized = process_subframe(subframe, backend="vectorized")
        assert serial.equals(vectorized)

    def test_unknown_backend_rejected(self, subframe):
        with pytest.raises(ValueError, match="unknown backend"):
            process_subframe(subframe, backend="cuda")

    def test_serial_benchmark_backend(self):
        model = TraceParameterModel([mixed_users()])
        factory = SubframeFactory(seed=11)
        reference = SerialBenchmark(model, factory=factory, synthesize=True)
        fast = SerialBenchmark(
            model, factory=factory, synthesize=True, backend="vectorized"
        )
        a = reference.run(num_subframes=1)
        b = fast.run(num_subframes=1)
        assert a[0].equals(b[0])

    def test_serial_benchmark_rejects_unknown(self):
        model = TraceParameterModel([mixed_users()])
        with pytest.raises(ValueError, match="unknown backend"):
            SerialBenchmark(model, backend="gpu")


def test_tail_gather_cache_holds_a_full_ramp():
    """A 1 200-subframe paper ramp has more than 256 distinct shapes: the
    second pass over it must not rebuild a single gather table."""
    model = RandomizedParameterModel(total_subframes=1200, seed=1)
    shapes = [
        (user.layers, user.num_subcarriers)
        for index in range(1200)
        for user in model.uplink_parameters(index)
    ]
    assert len(set(shapes)) > 256
    _tail_gather.cache_clear()
    for shape in shapes:
        _tail_gather(*shape)
    first = _tail_gather.cache_info()
    assert first.misses == len(set(shapes))
    for shape in shapes:
        _tail_gather(*shape)
    assert _tail_gather.cache_info().misses == first.misses


class TestVectorizedIsClockFree:
    def test_no_host_clock_reads(self):
        """The vectorized module must stay deterministic-scope clean."""
        import ast
        import inspect

        import repro.uplink.vectorized as mod

        tree = ast.parse(inspect.getsource(mod))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr not in {
                    "perf_counter",
                    "perf_counter_ns",
                    "monotonic",
                    "time",
                }, f"host clock read {node.attr!r} in repro.uplink.vectorized"
