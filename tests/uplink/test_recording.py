"""Tests for result recording/replay (Section IV-D cross-run verification)."""

import numpy as np
import pytest

from repro.phy.params import Modulation
from repro.sched.threaded import ThreadedRuntime
from repro.uplink.parameter_model import TraceParameterModel
from repro.uplink.recording import (
    load_results,
    save_results,
    verify_against_recording,
)
from repro.uplink.serial import SerialBenchmark
from repro.uplink.subframe import SubframeFactory
from repro.uplink.user import UserParameters


@pytest.fixture()
def run():
    model = TraceParameterModel(
        [
            [
                UserParameters(0, 8, 2, Modulation.QAM16),
                UserParameters(1, 4, 1, Modulation.QPSK),
            ],
            [UserParameters(0, 6, 1, Modulation.QAM64)],
        ]
    )
    factory = SubframeFactory(seed=0)
    return model, factory, SerialBenchmark(model, factory).run(4)


class TestSaveLoad:
    def test_roundtrip(self, run, tmp_path):
        _, _, results = run
        path = save_results(results, tmp_path / "ref.npz")
        loaded = load_results(path)
        assert len(loaded) == len(results)
        for a, b in zip(loaded, sorted(results, key=lambda r: r.subframe_index)):
            assert a.equals(b)

    def test_loads_what_it_stored(self, run, tmp_path):
        """Payloads come back as the ``uint8`` the archive holds, and an
        archive saved from ``int64`` payloads (as older runs held them)
        loads equal to a fresh run."""
        from dataclasses import replace

        _, _, results = run
        widened = [
            replace(
                result,
                user_results=[
                    replace(user, payload=user.payload.astype(np.int64))
                    for user in result.user_results
                ],
            )
            for result in results
        ]
        loaded = load_results(save_results(widened, tmp_path / "wide.npz"))
        fresh = sorted(results, key=lambda r: r.subframe_index)
        for a, b in zip(loaded, fresh, strict=True):
            assert a.equals(b)
            for user in a.user_results:
                assert user.payload.dtype == np.uint8

    def test_appends_npz_suffix(self, run, tmp_path):
        _, _, results = run
        path = save_results(results, tmp_path / "ref")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_rejects_duplicate_indices(self, run, tmp_path):
        _, _, results = run
        with pytest.raises(ValueError):
            save_results(results + results[:1], tmp_path / "dup.npz")

    def test_rejects_foreign_archive(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez_compressed(path, data=np.arange(3))
        with pytest.raises(ValueError):
            load_results(path)

    def test_preserves_crc_flags(self, run, tmp_path):
        _, _, results = run
        results[0].user_results[0].crc_ok = False
        path = save_results(results, tmp_path / "ref.npz")
        loaded = load_results(path)
        by_index = {r.subframe_index: r for r in loaded}
        target = by_index[results[0].subframe_index]
        flags = {u.user_id: u.crc_ok for u in target.user_results}
        assert flags[results[0].user_results[0].user_id] is False


class TestCrossRunVerification:
    def test_parallel_run_verifies_against_stored_serial(self, run, tmp_path):
        """The paper's §IV-D use case: record the serial run once, check a
        parallel run (different scheduler) against the recording."""
        model, factory, serial_results = run
        path = save_results(serial_results, tmp_path / "ref.npz")
        subframes = [
            factory.from_pool(model.uplink_parameters(i), i) for i in range(4)
        ]
        parallel = ThreadedRuntime(num_workers=3).run(subframes)
        report = verify_against_recording(path, parallel)
        assert report.passed, str(report)

    def test_detects_divergence(self, run, tmp_path):
        _, _, results = run
        path = save_results(results, tmp_path / "ref.npz")
        tampered = load_results(path)
        tampered[1].user_results[0].payload ^= 1
        report = verify_against_recording(path, tampered)
        assert not report.passed
        assert report.mismatched_subframes == [tampered[1].subframe_index]
