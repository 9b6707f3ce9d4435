"""Fault injection and resilience in the discrete-event simulator.

Sim faults are cycle-accurate and therefore fully deterministic: the same
FaultPlan over the same workload must replay to identical results, and the
SchedulerInvariantChecker must stay silent throughout.
"""

import pytest

from repro.faults import (
    AdmissionController,
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
)
from repro.experiments.latency import deadline_report
from repro.obs import SchedulerInvariantChecker, TelemetryCollector
from repro.obs.events import EventKind
from repro.power.estimator import calibrate_from_cost_model
from repro.sim.cost import CostModel, MachineSpec
from repro.sim.machine import MachineSimulator, SimConfig
from repro.uplink.parameter_model import RandomizedParameterModel

NUM_WORKERS = 8
NUM_SUBFRAMES = 20


def small_cost():
    return CostModel(
        machine=MachineSpec(num_cores=NUM_WORKERS + 2, num_workers=NUM_WORKERS)
    )


def run_sim(faults=None, resilience=None, admission=None,
            num_subframes=NUM_SUBFRAMES, seed=7, check_invariants=True,
            observers=()):
    checker = SchedulerInvariantChecker()
    sim = MachineSimulator(
        small_cost(),
        config=SimConfig(drain_margin_s=0.2),
        observers=[*([checker] if check_invariants else []), *observers],
        faults=faults,
        resilience=resilience,
        admission=admission,
    )
    model = RandomizedParameterModel(total_subframes=num_subframes, seed=seed)
    result = sim.run(model, num_subframes=num_subframes)
    return result, checker


def fingerprint(result):
    return (
        result.ledger.summary(),
        result.tasks_executed,
        result.users_processed,
        result.shed_users,
        result.aborted_users,
        result.retried_users,
        tuple(tuple(sorted(f.items())) for f in result.faults_applied),
    )


class TestCrash:
    def plan(self):
        return FaultPlan(
            specs=(
                FaultSpec(kind=FaultKind.CORE_CRASH, subframe=3, target=2),
                FaultSpec(kind=FaultKind.CORE_CRASH, subframe=9, target=5),
            )
        )

    def test_crashes_apply_and_run_completes(self):
        result, checker = run_sim(
            faults=self.plan(), resilience=ResilienceConfig(max_retries=2)
        )
        assert checker.ok, checker.summary()
        kinds = [f["fault"] for f in result.faults_applied]
        assert kinds.count("core-crash") == 2
        assert result.ledger.dispatched == NUM_SUBFRAMES
        assert result.retried_users >= 1

    def test_crash_accounting_balances(self):
        result, _ = run_sim(
            faults=self.plan(),
            resilience=ResilienceConfig(max_retries=2),
        )
        result.ledger.check()
        assert result.ledger.dispatched == NUM_SUBFRAMES
        assert sum(result.ledger.counts().values()) == NUM_SUBFRAMES
        assert result.ledger.late_resolutions == []


class TestStallAndSlowdown:
    def test_stall_delays_but_preserves_work(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind=FaultKind.CORE_STALL, subframe=2, target=1,
                          param=200_000.0),
            )
        )
        clean, _ = run_sim()
        faulted, checker = run_sim(faults=plan)
        assert checker.ok, checker.summary()
        # The wedge occupies the core as one synthetic "task" (keeping the
        # checker's start/finish pairing intact); real work is unchanged.
        assert faulted.tasks_executed == clean.tasks_executed + 1
        assert faulted.users_processed == clean.users_processed
        assert faulted.faults_applied[0]["fault"] == "core-stall"

    def test_slowdown_applies(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind=FaultKind.CORE_SLOWDOWN, subframe=1, target=0,
                          param=4.0),
            )
        )
        clean, _ = run_sim()
        result, checker = run_sim(faults=plan)
        assert checker.ok, checker.summary()
        assert result.faults_applied[0]["fault"] == "core-slowdown"
        # A slower core changes timing, never the amount of work done.
        assert result.tasks_executed == clean.tasks_executed
        assert result.users_processed == clean.users_processed


class TestSlowdownThenCrash:
    """A slowed core that dies hands its stolen task back un-slowed.

    Regression: the crash re-queued the cycle count the dead core had been
    charged (already ×4), so a healthy thief redid the task at 4× its
    price — and a slowed thief at 16×.
    """

    @staticmethod
    def task_starts(seed, faults=None):
        events = []
        run_sim(
            faults=faults,
            resilience=ResilienceConfig(max_retries=2),
            seed=seed,
            observers=[events.append],
        )
        return [e for e in events if e.kind is EventKind.TASK_START]

    # Each of these (seed, target) pairs has the slowed core executing a
    # *stolen* task when it dies, which is the only case that hands back.
    @pytest.mark.parametrize("seed, target", [(0, 6), (0, 7), (2, 6)])
    def test_healthy_cores_only_run_clean_prices(self, seed, target):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind=FaultKind.CORE_SLOWDOWN, subframe=2,
                          target=target, param=4.0),
                FaultSpec(kind=FaultKind.CORE_CRASH, subframe=6, target=target),
            )
        )
        clean = {e.data["cycles"] for e in self.task_starts(seed)}
        faulted = self.task_starts(seed, plan)
        slowed = [e for e in faulted if e.core == target]
        assert any(e.data["cycles"] not in clean for e in slowed), (
            "the slowdown never took hold; the plan no longer tests anything"
        )
        alien = [
            (e.core, e.data["kernel"], e.data["cycles"])
            for e in faulted
            if e.core != target and e.data["cycles"] not in clean
        ]
        assert alien == []


class TestDeadline:
    def test_stalled_subframe_hits_cycle_deadline(self):
        # Stall every worker hard at subframe 1: the work cannot finish
        # within 3 subframe periods, so the deadline abort must fire.
        specs = tuple(
            FaultSpec(kind=FaultKind.CORE_STALL, subframe=1, target=w,
                      param=2e8)
            for w in range(NUM_WORKERS)
        )
        fold = TelemetryCollector()
        result, checker = run_sim(
            faults=FaultPlan(specs=specs),
            resilience=ResilienceConfig(max_retries=1, deadline_subframes=3.0),
            num_subframes=8,
            observers=[fold],
        )
        assert checker.ok, checker.summary()
        counts = result.ledger.counts()
        assert counts["aborted"] >= 1
        assert sum(counts.values()) == 8
        result.ledger.check()
        assert result.aborted_users >= 1
        # A deadline abort pins the latency at the deadline, not past it;
        # the subframe still never delivered, so both scorers count it.
        assert deadline_report(result).misses == counts["aborted"]
        assert fold.counters.get("deadline_misses", 0) == counts["aborted"]


class TestOverloadAndShedding:
    def test_overload_fault_forces_shedding(self):
        cost = small_cost()
        admission = AdmissionController(
            calibrate_from_cost_model(cost), max_activity=0.9
        )
        plan = FaultPlan(
            specs=(
                FaultSpec(kind=FaultKind.OVERLOAD, subframe=4, target=-1,
                          param=1e6),
            )
        )
        result, checker = run_sim(faults=plan, admission=admission)
        assert checker.ok, checker.summary()
        assert result.shed_users >= 1
        assert result.ledger.counts()["shed"] >= 1
        assert admission.total_shed_subframes >= 1
        result.ledger.check()

    def test_no_overload_no_shedding(self):
        admission = AdmissionController(
            calibrate_from_cost_model(small_cost()), max_activity=0.9
        )
        result, _ = run_sim(admission=admission)
        assert result.shed_users == 0
        assert result.ledger.counts()["shed"] == 0


class TestDeterminism:
    def test_same_plan_replays_identically(self):
        plan = FaultPlan.generate(
            seed=13, num_subframes=NUM_SUBFRAMES, num_workers=NUM_WORKERS,
            kinds=tuple(FaultKind.__members__[k] for k in
                        ("CORE_CRASH", "CORE_STALL", "CORE_SLOWDOWN")),
            faults_per_kind=2,
        )
        resilience = ResilienceConfig(max_retries=2)
        a, _ = run_sim(faults=plan, resilience=resilience)
        b, _ = run_sim(faults=plan, resilience=resilience)
        assert fingerprint(a) == fingerprint(b)

    def test_zero_fault_run_matches_no_fault_run(self):
        # An empty plan plus armed resilience must not perturb the sim.
        clean, _ = run_sim()
        armed, _ = run_sim(
            faults=FaultPlan(), resilience=ResilienceConfig(max_retries=2)
        )
        assert fingerprint(clean) == fingerprint(armed)
        assert armed.faults_applied == []

    def test_conservation_holds_under_faults(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind=FaultKind.CORE_STALL, subframe=2, target=1,
                          param=100_000.0),
                FaultSpec(kind=FaultKind.CORE_SLOWDOWN, subframe=5, target=3,
                          param=2.0),
            )
        )
        result, _ = run_sim(faults=plan)
        assert result.trace.check_conservation(atol_cycles=2.0)
