"""Supervised worker respawn (ISSUE 10 tentpole, part 1).

Three layers, cheapest first: the :class:`WorkerSupervisor` state
machine with a synthetic clock (backoff shape, rolling budget,
crash-loop detection), the multiprocess runtime healing through real
SIGKILLed workers, and the serve loop's ``respawn=`` plumbing end to
end under the chaos plan. Spawn-based tests keep the workloads tiny —
the exhaustive kill-matrix lives in ``tests/sched``.
"""

import pytest

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.watchdog import ResilienceConfig
from repro.sched.multiprocess import MultiprocessRuntime
from repro.serve import RespawnPolicy, ServeConfig, WorkerSupervisor, serve
from repro.serve.report import validate_serve_report
from repro.uplink.parameter_model import RandomizedParameterModel
from repro.uplink.serial import process_subframe_serial
from repro.uplink.subframe import SubframeFactory

NS = 1_000_000_000


class TestRespawnPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_respawns": 0},
            {"window_s": 0.0},
            {"backoff_initial_s": 0.0},
            {"backoff_initial_s": 0.5, "backoff_max_s": 0.1},
            {"heartbeat_timeout_s": 0.0},
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RespawnPolicy(**kwargs)

    def test_supervisor_needs_workers(self):
        with pytest.raises(ValueError):
            WorkerSupervisor(RespawnPolicy(), 0)


class TestWorkerSupervisorUnit:
    def _supervisor(self, **kwargs):
        return WorkerSupervisor(RespawnPolicy(**kwargs), num_workers=2)

    def test_backoff_doubles_per_consecutive_death_and_caps(self):
        sup = self._supervisor(
            backoff_initial_s=0.1, backoff_max_s=0.4, max_respawns=100
        )
        now = 0
        expected = [0.1, 0.2, 0.4, 0.4]  # doubling, then the ceiling
        for backoff_s in expected:
            due = sup.record_death(0, now)
            assert due == now + int(backoff_s * NS)
            assert sup.respawn_due(0) == due
            now = due
            sup.note_respawn(0, now)
        assert sup.respawns == len(expected)
        assert not sup.pending

    def test_progress_resets_consecutive_backoff(self):
        sup = self._supervisor(
            backoff_initial_s=0.1, backoff_max_s=10.0, max_respawns=100
        )
        sup.record_death(0, 0)
        sup.note_respawn(0, 1 * NS)
        assert sup.record_death(0, 2 * NS) == 2 * NS + int(0.2 * NS)
        sup.note_respawn(0, 3 * NS)
        sup.note_progress(0)  # slot healed: next death starts over
        assert sup.record_death(0, 4 * NS) == 4 * NS + int(0.1 * NS)

    def test_rolling_budget_trips_crash_loop(self):
        sup = self._supervisor(max_respawns=2, window_s=30.0)
        for now in (0, 1 * NS):
            due = sup.record_death(0, now)
            assert due is not None
            sup.note_respawn(0, due)
        # Third death inside the window: budget exhausted, permanently
        # fail-stop, and any scheduled respawn is cancelled.
        assert sup.record_death(1, 2 * NS) is None
        assert sup.fail_stop and not sup.pending
        assert sup.record_death(0, 100 * NS) is None  # stays tripped
        summary = sup.summary()
        assert summary["fail_stop"] and summary["deaths"] == 4
        assert summary["respawns"] == 2

    def test_window_prunes_old_respawns(self):
        sup = self._supervisor(max_respawns=2, window_s=10.0)
        for i in range(6):
            now = i * 20 * NS  # spaced wider than the window
            due = sup.record_death(0, now)
            assert due is not None, f"death {i} should still respawn"
            sup.note_respawn(0, due)
        assert not sup.fail_stop
        assert sup.respawns == 6


@pytest.fixture(scope="module")
def workload():
    num = 4
    model = RandomizedParameterModel(total_subframes=num, seed=3, max_users=3)
    factory = SubframeFactory(seed=3)
    subframes = [
        factory.synthesize(model.uplink_parameters(i), i) for i in range(num)
    ]
    return subframes, [process_subframe_serial(s) for s in subframes]


class TestRuntimeRespawn:
    def test_killed_workers_respawn_and_finish_bit_exact(self, workload):
        subframes, reference = workload
        plan = FaultPlan(
            specs=tuple(
                FaultSpec(
                    kind=FaultKind.WORKER_DEATH, subframe=0, target=w, seed=0
                )
                for w in range(2)
            ),
            seed=0,
        )
        runtime = MultiprocessRuntime(
            num_workers=2,
            faults=plan,
            resilience=ResilienceConfig(max_retries=5, drain_timeout_s=60.0),
            respawn=RespawnPolicy(
                backoff_initial_s=0.02, backoff_max_s=0.2, max_respawns=8
            ),
        )
        results = runtime.run(subframes)
        runtime.await_respawns()
        sup = runtime.supervisor
        # Both slots were SIGKILLed; under fail-stop that aborts the
        # pending work, under supervision every subframe still lands.
        assert runtime.ledger.ok
        assert runtime.ledger.counts()["ok"] == len(subframes)
        for result, expected in zip(results, reference):
            assert result.equals(expected)
        assert sup.deaths == 2 and sup.respawns >= 1
        assert not sup.fail_stop
        assert runtime.stats.respawns == sup.respawns

    def test_crash_loop_degrades_to_fail_stop(self, workload):
        subframes, _ = workload
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    kind=FaultKind.CRASH_LOOP, subframe=0, target=0, param=6.0
                ),
            ),
            seed=0,
        )
        runtime = MultiprocessRuntime(
            num_workers=1,
            faults=plan,
            resilience=ResilienceConfig(max_retries=8, drain_timeout_s=60.0),
            respawn=RespawnPolicy(
                max_respawns=2,
                window_s=60.0,
                backoff_initial_s=0.01,
                backoff_max_s=0.05,
            ),
        )
        runtime.run(subframes)
        sup = runtime.supervisor
        assert sup.fail_stop  # budget of 2 < 6 consecutive kills
        assert sup.respawns == 2
        # Fail-stop restores the historical abort semantics: the ledger
        # still resolves everything, as aborted rather than ok.
        assert runtime.ledger.ok
        counts = runtime.ledger.counts()
        assert counts["aborted"] > 0
        assert counts["ok"] + counts["aborted"] + counts["crc_failed"] == len(
            subframes
        )


class TestServeRespawn:
    def test_respawn_requires_multiprocess(self):
        with pytest.raises(ValueError, match="respawn"):
            serve(ServeConfig(cells=1, subframes=2, respawn=True))

    def test_chaos_serve_heals_and_stays_ledger_ok(self):
        result = serve(
            ServeConfig(
                cells=1,
                subframes=60,
                backend="multiprocess",
                workers=2,
                pace=False,
                arrival="poisson",
                rate=3.0,
                queue_depth=6,
                backpressure="block",
                seed=5,
                faults=True,
                respawn=True,
                respawn_policy=RespawnPolicy(
                    max_respawns=32,
                    window_s=60.0,
                    backoff_initial_s=0.02,
                    backoff_max_s=0.2,
                ),
            )
        )
        report = result.report
        assert report["ledger_ok"], result.errors
        assert not result.errors
        assert validate_serve_report(report) == []
        sup = report["supervisor"]
        assert report["config"]["respawn"] and sup is not None
        assert sup["deaths"] >= 1 and sup["respawns"] >= 1
        assert not sup["fail_stop"]
        assert report["dispatched"] == sum(
            report["terminal_counts"].values()
        )
        assert sup["per_cell"][0]["respawns"] == sup["respawns"]
