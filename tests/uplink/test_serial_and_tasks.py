"""Tests for the serial reference, the task decomposition, and verification."""

import numpy as np
import pytest

from repro.phy.params import Modulation
from repro.uplink.parameter_model import TraceParameterModel
from repro.uplink.serial import SerialBenchmark, process_subframe_serial
from repro.uplink.subframe import SubframeFactory
from repro.sim.cost import CostModel
from repro.uplink.tasks import UserJob
from repro.uplink.user import UserParameters
from repro.uplink.verification import verify_against_serial


def small_users():
    return [
        UserParameters(0, 8, 2, Modulation.QAM16),
        UserParameters(1, 4, 1, Modulation.QPSK),
    ]


class TestUserParameters:
    def test_allocation_roundtrip(self):
        user = UserParameters(3, 24, 2, Modulation.QAM64)
        assert user.allocation.num_prb == 24
        assert user.allocation.layers == 2

    def test_config_key(self):
        user = UserParameters(0, 8, 3, Modulation.QAM16)
        assert user.config_key() == (3, "16QAM")

    def test_validation(self):
        with pytest.raises(ValueError):
            UserParameters(-1, 8, 1, Modulation.QPSK)
        with pytest.raises(ValueError):
            UserParameters(0, 0, 1, Modulation.QPSK)


def fan_outs(program):
    """``(kernel, task count)`` per stage of a priced stage program."""
    return [
        (kernel, len(cycles) if kind == "par" else 1)
        for kind, cycles, kernel in program
    ]


def job_fan_outs(user):
    """The same, counted on :class:`UserJob`'s closures over a real grid."""
    sub = SubframeFactory(seed=0).synthesize([user], 0)
    job = UserJob(sub.slices[0], sub.grid)
    return job.antennas, [
        ("chest", len(job.chest_tasks())),
        ("combiner", 1),
        ("symbol", len(job.data_tasks())),
        ("finalize", 1),
    ]


class TestDescribeUserTasks:
    """A user's Fig. 5 tasks: the closures the functional runtimes run and
    the program the simulator prices fan out alike."""

    def test_task_counts_match_paper(self):
        """Section III: antennas × layers chest tasks; 12 × layers data."""
        user = UserParameters(0, 16, 4, Modulation.QAM64)
        antennas, job = job_fan_outs(user)
        assert antennas == 4
        assert job == fan_outs(CostModel().stage_program(user, antennas))
        assert job == [("chest", 16), ("combiner", 1), ("symbol", 48), ("finalize", 1)]

    def test_single_layer_counts(self):
        user = UserParameters(0, 16, 1, Modulation.QPSK)
        antennas, job = job_fan_outs(user)
        assert job == fan_outs(CostModel().stage_program(user, antennas))
        assert job == [("chest", 4), ("combiner", 1), ("symbol", 12), ("finalize", 1)]

    def test_descriptors_carry_work(self):
        """Every task of the program grows with the PRB count, and the
        modulation reaches the finalize join."""
        cost = CostModel()
        small = cost.stage_program(UserParameters(0, 30, 2, Modulation.QAM16))
        wide = cost.stage_program(UserParameters(0, 60, 2, Modulation.QAM16))
        for (_, a, _), (_, b, _) in zip(small, wide):
            assert b > a
        qpsk = cost.stage_program(UserParameters(0, 30, 2, Modulation.QPSK))
        assert qpsk[-1][1] < small[-1][1]


class TestUserJobEquivalence:
    def test_job_matches_process_user(self):
        """UserJob stages produce exactly the monolithic chain's result."""
        from repro.phy.chain import process_user

        factory = SubframeFactory(seed=1)
        sub = factory.synthesize(small_users(), 0)
        for user_slice in sub.slices:
            job = UserJob(user_slice, sub.grid)
            staged = job.run_serially()
            direct = process_user(
                user_slice.user.allocation,
                user_slice.view(sub.grid),
                user_id=user_slice.user.user_id,
            )
            assert staged.equals(direct)

    def test_data_task_before_combiner_raises(self):
        factory = SubframeFactory(seed=1)
        sub = factory.synthesize(small_users(), 0)
        job = UserJob(sub.slices[0], sub.grid)
        task = job.data_tasks()[0]
        with pytest.raises(RuntimeError):
            task()

    def test_synthesized_crcs_pass(self):
        factory = SubframeFactory(seed=2)
        sub = factory.synthesize(small_users(), 0)
        for user_slice in sub.slices:
            result = UserJob(user_slice, sub.grid).run_serially()
            assert result.crc_ok
            assert np.array_equal(
                result.payload, sub.expected_payloads[user_slice.user.user_id]
            )


class TestSerialBenchmark:
    def test_processes_all_users(self):
        model = TraceParameterModel([small_users()])
        bench = SerialBenchmark(model, SubframeFactory(seed=0))
        results = bench.run(3)
        assert len(results) == 3
        assert all(len(r.user_results) == 2 for r in results)

    def test_pool_mode_is_deterministic(self):
        model = TraceParameterModel([small_users()])
        a = SerialBenchmark(model, SubframeFactory(seed=0)).run(2)
        b = SerialBenchmark(model, SubframeFactory(seed=0)).run(2)
        assert all(x.equals(y) for x, y in zip(a, b))

    def test_rejects_zero_subframes(self):
        model = TraceParameterModel([small_users()])
        with pytest.raises(ValueError):
            SerialBenchmark(model).run(0)

    def test_subframe_result_equals(self):
        model = TraceParameterModel([small_users()])
        factory = SubframeFactory(seed=0)
        r0 = process_subframe_serial(factory.from_pool(small_users(), 0))
        r0b = process_subframe_serial(factory.from_pool(small_users(), 0))
        r1 = process_subframe_serial(factory.from_pool(small_users(), 1))
        r1.subframe_index = 0
        assert r0.equals(r0b)
        assert not r0.equals(r1)  # different pooled data → different bits


class TestVerification:
    def _results(self, n=3, seed=0):
        model = TraceParameterModel([small_users()])
        return SerialBenchmark(model, SubframeFactory(seed=seed)).run(n)

    def test_identical_runs_pass(self):
        report = verify_against_serial(self._results(), self._results())
        assert report.passed
        assert report.subframes_compared == 3
        assert "PASSED" in str(report)

    def test_corrupted_run_fails(self):
        serial = self._results()
        parallel = self._results()
        parallel[1].user_results[0].payload = (
            parallel[1].user_results[0].payload ^ 1
        )
        report = verify_against_serial(serial, parallel)
        assert not report.passed
        assert report.mismatched_subframes == [1]
        assert "FAILED" in str(report)

    def test_missing_subframe_fails(self):
        serial = self._results()
        report = verify_against_serial(serial, serial[:-1])
        assert not report.passed

    def test_out_of_order_parallel_results_pass(self):
        serial = self._results()
        shuffled = list(reversed(self._results()))
        assert verify_against_serial(serial, shuffled).passed

    def test_duplicate_indices_rejected(self):
        serial = self._results()
        with pytest.raises(ValueError):
            verify_against_serial(serial, serial + serial)
