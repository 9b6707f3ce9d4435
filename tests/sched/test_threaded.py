"""Tests for the thread-based work-stealing runtime.

The key property is Section IV-D's verification: the parallel runtime must
produce bit-identical results to the serial reference over a predetermined
subframe sequence.
"""

import numpy as np
import pytest

from repro.phy.params import Modulation
from repro.sched.threaded import ThreadedRuntime
from repro.uplink.parameter_model import TraceParameterModel
from repro.uplink.serial import SerialBenchmark
from repro.uplink.subframe import SubframeFactory
from repro.uplink.user import UserParameters
from repro.uplink.verification import verify_against_serial


def make_subframes(num=4, seed=0):
    users = [
        [
            UserParameters(0, 8, 2, Modulation.QAM16),
            UserParameters(1, 4, 1, Modulation.QPSK),
            UserParameters(2, 12, 1, Modulation.QAM64),
        ],
        [UserParameters(0, 16, 4, Modulation.QPSK)],
    ]
    model = TraceParameterModel(users)
    factory = SubframeFactory(seed=seed)
    subframes = [factory.from_pool(model.uplink_parameters(i), i) for i in range(num)]
    return model, factory, subframes


class TestThreadedRuntime:
    def test_results_match_serial_reference(self):
        model, factory, subframes = make_subframes(num=4)
        serial = SerialBenchmark(model, factory).run(4)
        runtime = ThreadedRuntime(num_workers=4)
        parallel = runtime.run(subframes)
        report = verify_against_serial(serial, parallel)
        assert report.passed, str(report)

    def test_single_worker_matches_serial(self):
        model, factory, subframes = make_subframes(num=2)
        serial = SerialBenchmark(model, factory).run(2)
        parallel = ThreadedRuntime(num_workers=1).run(subframes)
        assert verify_against_serial(serial, parallel).passed

    def test_many_workers_more_than_tasks(self):
        model, factory, subframes = make_subframes(num=2)
        serial = SerialBenchmark(model, factory).run(2)
        parallel = ThreadedRuntime(num_workers=12).run(subframes)
        assert verify_against_serial(serial, parallel).passed

    def test_stats_account_all_tasks(self):
        _, _, subframes = make_subframes(num=2)
        runtime = ThreadedRuntime(num_workers=4)
        runtime.run(subframes)
        # chest: antennas*layers, data: 12*layers per user, plus the two
        # joins (combiner, finalize) the user thread runs as serial tasks
        # — the simulator's tasks_executed definition.
        expected = 0
        for sub in subframes:
            for user_slice in sub.slices:
                layers = user_slice.user.layers
                expected += 4 * layers + 12 * layers + 2
        assert runtime.stats.total_tasks == expected
        assert sum(runtime.stats.users_processed) == sum(
            len(s.slices) for s in subframes
        )

    def test_submit_requires_started_runtime(self):
        _, _, subframes = make_subframes(num=1)
        runtime = ThreadedRuntime(num_workers=2)
        with pytest.raises(RuntimeError):
            runtime.submit(subframes[0])

    def test_double_start_rejected(self):
        runtime = ThreadedRuntime(num_workers=2)
        runtime.start()
        try:
            with pytest.raises(RuntimeError):
                runtime.start()
        finally:
            runtime.stop()

    def test_incremental_submit_then_drain(self):
        model, factory, subframes = make_subframes(num=3)
        serial = SerialBenchmark(model, factory).run(3)
        runtime = ThreadedRuntime(num_workers=3)
        runtime.start()
        try:
            for sub in subframes:
                runtime.submit(sub)
            runtime.drain()
        finally:
            runtime.stop()
        parallel = runtime.collect_results()
        assert verify_against_serial(serial, parallel).passed

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ThreadedRuntime(num_workers=0)

    def test_determinism_of_results_across_runs(self):
        """Scheduling order varies, but decoded bits must not."""
        _, _, subframes = make_subframes(num=3)
        a = ThreadedRuntime(num_workers=4).run(subframes)
        b = ThreadedRuntime(num_workers=2).run(subframes)
        for x, y in zip(a, b):
            assert x.equals(y)

    def test_collect_results_drains_outstanding_work(self):
        """collect_results must block on in-flight subframes, not race them.

        Regression: the old implementation returned whatever had completed
        so far, losing subframes submitted but not yet finished.
        """
        model, factory, subframes = make_subframes(num=4)
        serial = SerialBenchmark(model, factory).run(4)
        runtime = ThreadedRuntime(num_workers=3)
        runtime.start()
        try:
            for sub in subframes:
                runtime.submit(sub)
            # No explicit drain(): collect_results must do it itself.
            parallel = runtime.collect_results()
        finally:
            runtime.stop()
        assert len(parallel) == 4
        assert verify_against_serial(serial, parallel).passed

    def test_event_stream_matches_stats(self):
        from repro.obs import EventRecorder

        _, _, subframes = make_subframes(num=3)
        recorder = EventRecorder()
        runtime = ThreadedRuntime(num_workers=4, observers=[recorder])
        runtime.run(subframes)
        counts = recorder.counts()
        assert counts["dispatch"] == 3
        assert counts["task-start"] == runtime.stats.total_tasks
        assert counts["task-finish"] == runtime.stats.total_tasks
        assert counts.get("steal", 0) == runtime.stats.total_steals
        assert counts["user-start"] == counts["user-finish"]
        assert counts["user-finish"] == sum(runtime.stats.users_processed)
        # Timestamps are monotonic-clock nanoseconds, strictly positive.
        assert all(e.t > 0 for e in recorder)

    def test_no_observers_disables_emit_hook(self):
        runtime = ThreadedRuntime(num_workers=2)
        assert runtime.emit is None

    def test_synthesized_subframes_decode_correctly_in_parallel(self):
        users = [
            UserParameters(0, 8, 1, Modulation.QAM16),
            UserParameters(1, 6, 2, Modulation.QPSK),
        ]
        factory = SubframeFactory(seed=9)
        sub = factory.synthesize(users, 0)
        results = ThreadedRuntime(num_workers=4).run([sub])
        for result in results[0].user_results:
            assert result.crc_ok
            assert np.array_equal(
                result.payload, sub.expected_payloads[result.user_id]
            )
