"""Cross-module integration tests: the whole stack, plus failure injection."""

import numpy as np
import pytest

from repro.phy.params import Modulation
from repro.sched.threaded import ThreadedRuntime
from repro.uplink.parameter_model import RandomizedParameterModel, TraceParameterModel
from repro.uplink.serial import SerialBenchmark, process_subframe_serial
from repro.uplink.subframe import SubframeFactory
from repro.uplink.user import UserParameters
from repro.uplink.verification import verify_against_serial


class SmallRandomModel(RandomizedParameterModel):
    """The real randomized model, capped so the functional chain stays fast."""

    def uplink_parameters(self, subframe_index):
        users = super().uplink_parameters(subframe_index)
        capped = []
        for user in users[:3]:
            capped.append(
                UserParameters(
                    user_id=user.user_id,
                    num_prb=min(user.num_prb, 8),
                    layers=user.layers,
                    modulation=user.modulation,
                )
            )
        return capped


class TestFullStack:
    def test_randomized_model_through_both_runtimes(self):
        """Parameter model → input pool → serial and threaded runtimes →
        bit-exact verification (the paper's §IV-D methodology, end to end)."""
        model = SmallRandomModel(total_subframes=400, seed=1)
        factory = SubframeFactory(seed=1)
        serial = SerialBenchmark(model, factory).run(6)
        subframes = [factory.from_pool(model.uplink_parameters(i), i) for i in range(6)]
        parallel = ThreadedRuntime(num_workers=4).run(subframes)
        assert verify_against_serial(serial, parallel).passed

    def test_synthesized_pipeline_decodes_everyone(self):
        model = SmallRandomModel(total_subframes=400, seed=2)
        factory = SubframeFactory(seed=2)
        bench = SerialBenchmark(model, factory, synthesize=True)
        for result in bench.run(3):
            for user_result in result.user_results:
                assert user_result.crc_ok, f"user {user_result.user_id} failed CRC"


class TestFailureInjection:
    def _subframe(self, seed=5):
        users = [
            UserParameters(0, 8, 1, Modulation.QAM16),
            UserParameters(1, 6, 2, Modulation.QPSK),
        ]
        return SubframeFactory(seed=seed).synthesize(users, 0)

    def test_corrupting_one_user_fails_only_that_crc(self):
        subframe = self._subframe()
        victim = subframe.slices[0]
        lo = victim.subcarrier_offset
        # Blast the victim's data symbols with huge noise.
        subframe.grid[:, :, lo : lo + victim.num_subcarriers] += 10.0
        result = process_subframe_serial(subframe)
        by_id = {r.user_id: r for r in result.user_results}
        assert not by_id[0].crc_ok
        assert by_id[1].crc_ok

    def test_zeroed_grid_decodes_to_wrong_payload_without_crashing(self):
        """A silent input decodes to the all-zeros word — which is a valid
        codeword (zero payload, zero CRC), so the CRC *passes*; what must
        hold is that the chain survives and the payload is wrong."""
        subframe = self._subframe()
        subframe.grid[:] = 0.0
        result = process_subframe_serial(subframe)
        for user_result in result.user_results:
            expected = subframe.expected_payloads[user_result.user_id]
            assert not np.array_equal(user_result.payload, expected)
            assert not user_result.payload.any()

    def test_nan_free_output_even_with_silent_input(self):
        subframe = self._subframe()
        subframe.grid[:] = 0.0
        result = process_subframe_serial(subframe)
        for user_result in result.user_results:
            assert np.all(np.isfinite(user_result.llrs))

    def test_single_bit_grid_perturbation_detected(self):
        """A tiny targeted distortion of one user's data region is caught by
        that user's CRC (with overwhelming probability)."""
        subframe = self._subframe(seed=6)
        victim = subframe.slices[1]
        lo = victim.subcarrier_offset
        subframe.grid[:, 0, lo] += 8.0 + 8.0j
        result = process_subframe_serial(subframe)
        by_id = {r.user_id: r for r in result.user_results}
        assert not by_id[1].crc_ok
        assert by_id[0].crc_ok


class TestEstimatorOnFunctionalTraces:
    def test_estimates_track_cost_model_on_real_workload(self):
        """The estimator and cost model agree subframe-by-subframe on the
        randomized trace (Eq. 4 vs the task-graph sum)."""
        from repro.power.estimator import calibrate_from_cost_model
        from repro.sim.cost import CostModel

        cost = CostModel()
        estimator = calibrate_from_cost_model(cost)
        model = RandomizedParameterModel(total_subframes=2000, seed=3)
        for index in range(0, 2000, 97):
            users = model.uplink_parameters(index)
            estimate = estimator.estimate_subframe(users)
            cycles = sum(cost.user_cycles(u) for u in users)
            exact = cycles / cost.machine.cycles_per_subframe_budget
            assert estimate == pytest.approx(exact, rel=0.12)
