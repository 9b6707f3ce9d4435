"""Supervised worker respawn.

Three layers, cheapest first: the :class:`WorkerSupervisor` state
machine with a synthetic clock (backoff shape, rolling budget,
crash-loop detection), the multiprocess runtime healing through real
SIGKILLed workers, and a multiprocess serve run's supervisor report end
to end under the chaos plan. The budget and backoff are module constants of
:mod:`repro.sched.supervisor`; a test that needs another shape
monkeypatches them. Spawn-based tests keep the workloads tiny — the
exhaustive kill-matrix lives in ``tests/sched``.
"""

from types import SimpleNamespace

import pytest

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.watchdog import ResilienceConfig
from repro.obs.events import EventKind
from repro.phy.params import Modulation
from repro.sched import supervisor
from repro.sched.multiprocess import MultiprocessRuntime
from repro.sched.supervisor import WorkerSupervisor
from repro.serve import ServeConfig, serve
from repro.serve.loop import _Server
from repro.serve.report import validate_serve_report
from repro.uplink.parameter_model import RandomizedParameterModel
from repro.uplink.serial import process_subframe_serial
from repro.uplink.subframe import SubframeFactory
from repro.uplink.user import UserParameters

NS = 1_000_000_000


@pytest.fixture
def policy(monkeypatch):
    """Set the supervisor's budget/backoff constants for one test."""

    def set_policy(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(supervisor, name, value)

    return set_policy


class TestRespawnPolicyValidation:
    def test_supervisor_needs_workers(self):
        with pytest.raises(ValueError):
            WorkerSupervisor(0)


class TestWorkerSupervisorUnit:
    def _supervisor(self, policy, **constants):
        policy(**constants)
        return WorkerSupervisor(num_workers=2)

    def test_backoff_doubles_per_consecutive_death_and_caps(self, policy):
        sup = self._supervisor(
            policy, BACKOFF_INITIAL_S=0.1, BACKOFF_MAX_S=0.4, MAX_RESPAWNS=100
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

    def test_progress_resets_consecutive_backoff(self, policy):
        sup = self._supervisor(
            policy, BACKOFF_INITIAL_S=0.1, BACKOFF_MAX_S=10.0, MAX_RESPAWNS=100
        )
        sup.record_death(0, 0)
        sup.note_respawn(0, 1 * NS)
        assert sup.record_death(0, 2 * NS) == 2 * NS + int(0.2 * NS)
        sup.note_respawn(0, 3 * NS)
        sup.note_progress(0)  # slot healed: next death starts over
        assert sup.record_death(0, 4 * NS) == 4 * NS + int(0.1 * NS)

    def test_rolling_budget_trips_crash_loop(self, policy):
        sup = self._supervisor(policy, MAX_RESPAWNS=2, WINDOW_S=30.0)
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
        assert (summary["max_respawns"], summary["window_s"]) == (2, 30.0)

    def test_window_prunes_old_respawns(self, policy):
        sup = self._supervisor(policy, MAX_RESPAWNS=2, WINDOW_S=10.0)
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
    def test_killed_workers_respawn_and_finish_bit_exact(self, workload, policy):
        subframes, reference = workload
        policy(BACKOFF_INITIAL_S=0.02, BACKOFF_MAX_S=0.2, MAX_RESPAWNS=8)
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
        )
        results = runtime.run(subframes)
        sup = runtime.supervisor
        assert not sup.pending  # closing the pool leaves no respawn due
        # Both slots were SIGKILLed; they respawn, so every subframe
        # still lands.
        assert runtime.ledger.ok
        assert runtime.ledger.counts()["ok"] == len(subframes)
        for result, expected in zip(results, reference):
            assert result.equals(expected)
        assert sup.deaths == 2 and sup.respawns >= 1
        assert not sup.fail_stop
        assert runtime.stats.respawns == sup.respawns

    def test_crash_loop_degrades_to_fail_stop(self, workload, policy):
        subframes, _ = workload
        policy(
            MAX_RESPAWNS=2, WINDOW_S=60.0, BACKOFF_INITIAL_S=0.01, BACKOFF_MAX_S=0.05
        )
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
        )
        runtime.run(subframes)
        sup = runtime.supervisor
        assert sup.fail_stop  # budget of 2 < 6 consecutive kills
        assert sup.respawns == 2
        # Fail-stop aborts what the dead pool holds: the ledger still
        # resolves everything, as aborted rather than ok.
        assert runtime.ledger.ok
        counts = runtime.ledger.counts()
        assert counts["aborted"] > 0
        assert counts["ok"] + counts["aborted"] + counts["crc_failed"] == len(
            subframes
        )


def chaos_serve(subframes: int):
    """A one-cell multiprocess chaos serve run, unpaced and blocking."""
    return serve(
        ServeConfig(
            cells=1,
            subframes=subframes,
            backend="multiprocess",
            workers=2,
            pace=False,
            arrival="poisson",
            rate=3.0,
            queue_depth=6,
            backpressure="block",
            seed=5,
            faults=True,
        )
    )


def assert_deaths_accounted(sup: dict) -> None:
    """Short of fail-stop, every death was respawned or still waits."""
    if not sup["fail_stop"]:
        assert sup["deaths"] == sup["respawns"] + sup["pending"], sup


class TestServeRespawn:
    def test_chaos_serve_heals_and_stays_ledger_ok(self, policy):
        policy(
            MAX_RESPAWNS=32, WINDOW_S=60.0, BACKOFF_INITIAL_S=0.02, BACKOFF_MAX_S=0.2
        )
        result = chaos_serve(60)
        report = result.report
        assert report["ledger_ok"], result.errors
        assert not result.errors
        assert validate_serve_report(report) == []
        sup = report["supervisor"]
        assert sup is not None
        assert sup["deaths"] >= 1 and sup["respawns"] >= 1
        assert not sup["fail_stop"]
        assert_deaths_accounted(sup)
        assert report["dispatched"] == sum(
            report["terminal_counts"].values()
        )
        assert sup["per_cell"][0]["respawns"] == sup["respawns"]

    def test_a_respawn_still_waiting_at_the_end_is_reported(
        self, policy, monkeypatch
    ):
        """One death whose backoff outlives the run: the other worker
        finishes the work and the record counts the slot as pending."""
        policy(BACKOFF_INITIAL_S=3600.0, BACKOFF_MAX_S=3600.0)
        monkeypatch.setattr(
            MultiprocessRuntime, "chaos_kinds", (FaultKind.WORKER_DEATH,)
        )
        result = chaos_serve(40)
        report = result.report
        assert report["ledger_ok"], result.errors
        assert validate_serve_report(report) == []
        sup = report["supervisor"]
        assert (sup["deaths"], sup["respawns"], sup["pending"]) == (1, 0, 1)
        assert not sup["fail_stop"]
        assert_deaths_accounted(sup)
        assert sup["per_cell"][0]["pending"] == 1


class TestServeChaosPlan:
    def test_a_multiprocess_cell_plans_the_repeated_kill_kinds(self):
        """``--faults`` on a multiprocess cell draws the plan the pool drew
        when respawn was a switch and was on: the same specs, spec for
        spec (captured once from that code), and the threaded plan it
        always drew."""
        planned = {}
        for backend in ("multiprocess", "threaded"):
            server = _Server(
                ServeConfig(
                    cells=2, subframes=120, backend=backend, workers=2,
                    seed=5, faults=True, pace=False,
                )
            )
            for cell in (0, 1):
                plan = server._cell_plan(cell)
                planned[backend, cell] = (plan.seed, [
                    (s.kind.value, s.subframe, s.target, s.param, s.seed)
                    for s in plan.specs
                ])
        assert planned == {
            ("multiprocess", 0): (6, [
                ("overload", 0, 0, 8.0, 2019726626),
                ("crash-loop", 97, 1, 2.0, 1371750992),
                ("task-exception", 97, 1, 0.0, 158152503),
                ("respawn-storm", 98, 0, 2.0, 1171229348),
                ("worker-death", 101, 0, 0.0, 2083207870),
            ]),
            ("multiprocess", 1): (1000009, [
                ("respawn-storm", 2, 1, 2.0, 155383073),
                ("task-exception", 10, 0, 0.0, 1760987018),
                ("crash-loop", 16, 1, 2.0, 1036321677),
                ("overload", 50, 1, 8.0, 551856413),
                ("worker-death", 66, 0, 0.0, 548600388),
            ]),
            ("threaded", 0): (6, [
                ("overload", 0, 0, 8.0, 2019726626),
                ("task-exception", 97, 1, 0.0, 158152503),
                ("worker-death", 101, 0, 0.0, 2083207870),
            ]),
            ("threaded", 1): (1000009, [
                ("task-exception", 10, 0, 0.0, 1760987018),
                ("overload", 50, 1, 8.0, 551856413),
                ("worker-death", 66, 0, 0.0, 548600388),
            ]),
        }

    def test_an_inline_cell_arms_no_injector_and_still_batches(self):
        """An inline transport takes no worker fault, so ``--faults`` leaves
        a serial/vectorized cell's runtime no share of the plan: it gets no
        injector, and a vectorized cell still runs a backlog as one call."""
        for backend in ("serial", "vectorized"):
            server = _Server(
                ServeConfig(
                    cells=2, subframes=120, backend=backend, seed=5,
                    faults=True, pace=False,
                )
            )
            assert [cell.runtime.faults for cell in server.cells] == [None, None]
        # Run the vectorized cell's head alone, queue a backlog behind it,
        # and count the subframes of every call.
        calls: list[int] = []

        def record(event):
            if event.kind is EventKind.TASK_START:
                calls.append(event.data["subframes"])

        server.emit = record  # the cell's watcher forwards task events here
        server.loop = SimpleNamespace(call_soon_threadsafe=lambda land: None)
        users = [UserParameters(u, 4, 1, Modulation.QPSK) for u in range(2)]
        factory = SubframeFactory(seed=5)
        subframes = [factory.synthesize(users, i) for i in range(4)]
        runtime = server.cells[0].runtime
        runtime.start()
        try:
            runtime.submit(subframes[0])
            runtime.poll()
            for subframe in subframes[1:]:
                runtime.submit(subframe)
            runtime.drain()
        finally:
            runtime.close()
        assert calls == [1, 3]
