"""Invariant-checker validation over all four power-management policies.

Two jobs: prove the checker stays silent on the (fixed) scheduler for
every policy, and prove it would have caught the historical idle-set
double-membership bug in ``_distribute_work`` (a core left in
``_idle_spin`` after ``_go_idle`` had already moved it to ``_idle_nap``
or ``_disabled``).
"""

import numpy as np
import pytest

from repro.experiments.power_study import run_power_study
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    SubframeLedger,
    TerminalState,
)
from repro.obs import (
    EventRecorder,
    InvariantViolation,
    Profiler,
    SchedulerInvariantChecker,
    TelemetryCollector,
)
from repro.obs.events import EventKind
from repro.phy.params import Modulation
from repro.power.estimator import calibrate_from_cost_model
from repro.power.governor import make_policy
from repro.sim import cost as cost_module
from repro.sim.cost import CostModel, MachineSpec
from repro.sim.machine import MachineSimulator, SimConfig
from repro.sim.trace import CoreState
from repro.uplink.parameter_model import (
    RandomizedParameterModel,
    SteadyStateParameterModel,
)

POLICIES = ["NONAP", "IDLE", "NAP", "NAP+IDLE"]
NUM_WORKERS = 8
NUM_SUBFRAMES = 60


def build_sim(policy_name, observers=None, **options):
    cost = CostModel(
        machine=MachineSpec(num_cores=NUM_WORKERS + 2, num_workers=NUM_WORKERS)
    )
    estimator = calibrate_from_cost_model(cost)
    return MachineSimulator(
        cost,
        policy=make_policy(policy_name, NUM_WORKERS, estimator),
        config=SimConfig(drain_margin_s=0.2),
        observers=observers,
        **options,
    )


def run_checked(policy_name, strict=False):
    checker = SchedulerInvariantChecker(strict=strict)
    recorder = EventRecorder()
    sim = build_sim(policy_name, observers=[recorder, checker])
    model = RandomizedParameterModel(total_subframes=NUM_SUBFRAMES, seed=7)
    result = sim.run(model, num_subframes=NUM_SUBFRAMES)
    return result, checker, recorder


class TestCheckerCleanOnAllPolicies:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_zero_violations_on_randomized_workload(self, policy):
        result, checker, recorder = run_checked(policy)
        assert checker.ok, checker.summary()
        assert checker.events_checked == len(recorder)
        # Event stream is internally consistent with the run counters.
        counts = recorder.counts()
        assert counts["task-start"] == counts["task-finish"] == result.tasks_executed
        assert counts["user-finish"] == result.users_processed
        assert counts.get("steal", 0) == result.steals
        assert counts["dispatch"] == NUM_SUBFRAMES

    @pytest.mark.parametrize("policy", POLICIES)
    def test_occupancy_trace_conserves_core_time(self, policy):
        result, checker, _ = run_checked(policy)
        assert result.trace.check_conservation(atol_cycles=2.0)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_strict_mode_does_not_raise_on_fixed_scheduler(self, policy):
        run_checked(policy, strict=True)  # InvariantViolation would escape


class TestDequeSwapPreservesSchedule:
    """``_Job.ready`` moved from list.pop(0)/pop() to a deque.

    Owner still pops newest (LIFO), thieves still take oldest (FIFO), so
    a fixed-seed run must reproduce the exact pre-change counters. NONAP
    and IDLE are untouched by the idle-set fix, so their counters pin the
    deque change alone.
    """

    # Same config/seed as run_checked(). NONAP's literal was captured on
    # the pre-change scheduler (list-based ready queues); IDLE's was
    # re-captured on the deque scheduler when the cost model changed.
    EXPECTED = {"NONAP": (6772, 2326, 370), "IDLE": (6772, 1864, 370)}

    @pytest.mark.parametrize("policy", sorted(EXPECTED))
    def test_fixed_seed_counters_unchanged(self, policy):
        result, _, _ = run_checked(policy)
        expected_tasks, expected_steals, expected_users = self.EXPECTED[policy]
        assert result.tasks_executed == expected_tasks
        assert result.steals == expected_steals
        assert result.users_processed == expected_users


class TestFixedSeedCyclesPinned:
    """Every deterministic output of a fixed-seed run, pinned exactly.

    Everything the simulator computes is a pure function of the
    ``CostModel``, the scheduler and the workload seed, so a change to a
    kernel cost, the task graph, the steal order or the parameter model
    moves these literals — that is what this test catches, and nothing
    else checks it (the paper-figure checks in ``benchmarks/`` are shape
    checks with tolerances). A change that means to move them re-captures
    the literals and says why.
    """

    KERNEL_CYCLES = {
        "chest": 52_405_848,
        "combiner": 3_738_874,
        "symbol": 249_478_668,
        "finalize": 3_623_165,
    }
    #: The policy changes who runs a task, never which tasks run.
    STEALS = {"NONAP": 2_253, "NAP+IDLE": 648}

    @pytest.mark.parametrize("policy", sorted(STEALS))
    def test_seed_zero_run_reproduces_every_counter(self, policy):
        profiler = Profiler(keep_spans=False)
        sim = build_sim(policy, observers=[profiler])
        model = RandomizedParameterModel(total_subframes=NUM_SUBFRAMES, seed=0)
        result = sim.run(model, num_subframes=NUM_SUBFRAMES)
        assert result.tasks_executed == 7_980
        assert result.users_processed == 430
        assert result.steals == self.STEALS[policy]
        assert result.subframe_cycles.sum() == 309_246_555
        kernel_cycles = {
            name: entry["total"]
            for name, entry in profiler.kernel_breakdown().items()
        }
        assert kernel_cycles == self.KERNEL_CYCLES
        assert profiler.deadline_miss_rate() == 0.0
        assert result.mean_activity() == pytest.approx(0.11044519821428574, rel=1e-12)


#: Slows core 2 and crashes it mid-task (subframe 3), stalls core 6,
#: crashes core 5 mid-task (subframe 6) and core 7 mid-stall (subframe 8).
FAULTS = FaultPlan(
    specs=(
        FaultSpec(FaultKind.CORE_SLOWDOWN, subframe=1, target=2, param=8.0),
        FaultSpec(FaultKind.CORE_CRASH, subframe=3, target=2),
        FaultSpec(FaultKind.CORE_STALL, subframe=4, target=6, param=200_000),
        FaultSpec(FaultKind.CORE_CRASH, subframe=6, target=5),
        FaultSpec(FaultKind.CORE_STALL, subframe=8, target=7, param=200_000),
        FaultSpec(FaultKind.CORE_CRASH, subframe=8, target=7),
    )
)


def run_faulted(observers=()):
    sim = build_sim(
        "NONAP",
        observers=[SchedulerInvariantChecker(strict=True), *observers],
        faults=FAULTS,
        resilience=ResilienceConfig(max_retries=2),
    )
    model = RandomizedParameterModel(total_subframes=NUM_SUBFRAMES, seed=7)
    return sim.run(model, num_subframes=20)


def run_counters(result):
    """The integers a scheduling change could move, latency as cycles."""
    latency = np.rint(result.subframe_latency_s * result.machine.clock_hz)
    return (
        result.tasks_executed,
        result.steals,
        result.users_processed,
        result.ledger.counts(),
        int(latency.sum()),
    )


def all_ok(n, aborted=0):
    return {"ok": n - aborted, "crc_failed": 0, "shed": 0, "aborted": aborted}


class TestCompletionPathsPinned:
    """Faults, the slot-pipelined graph and the four-policy study, pinned.

    Each path through a task's completion (a task, a serial continuation, a
    stall, each of them finishing, and a task or a stall lost to a crash)
    is exercised here and its run's counters are fixed literals, captured
    before completions became one callback per core and re-captured when
    the cost model moved demapping into the symbol tasks. A serial
    continuation lost to a crash is :class:`TestStaleCompletion`'s. Watts
    are float reductions, so they are pinned to 1e-12 rather than exactly.
    """

    FAULTS_APPLIED = [
        {"applied": True, "t": 3_500_000, "fault": "core-slowdown", "core": 2,
         "factor": 8.0},
        {"applied": True, "t": 10_500_000, "fault": "core-crash", "core": 2},
        {"applied": True, "t": 14_000_000, "fault": "core-stall", "core": 6,
         "cycles": 200_000},
        {"applied": True, "t": 21_000_000, "fault": "core-crash", "core": 5},
        {"applied": True, "t": 28_000_000, "fault": "core-stall", "core": 7,
         "cycles": 200_000},
        {"applied": True, "t": 28_000_000, "fault": "core-crash", "core": 7},
    ]
    #: Per policy: counters, per-window COMPUTE cycles, mean watts.
    STUDY = {
        "NONAP": (
            (14_566, 12_923, 803, all_ok(120), 227_497_840),
            [668_480_365, 682_557_336, 698_508_068, 680_302_014, 688_068_415,
             690_889_793],
            24.095149697004228,
        ),
        "IDLE": (
            (14_566, 10_257, 803, all_ok(120), 269_486_188),
            [668_480_365, 682_557_336, 698_508_068, 675_914_614, 692_455_815,
             690_889_793],
            17.09412182483867,
        ),
        "NAP": (
            (14_566, 7_674, 803, all_ok(120), 382_025_994),
            [668_480_365, 682_557_336, 698_508_068, 679_862_238, 688_508_191,
             690_889_793],
            16.594209217515427,
        ),
        "NAP+IDLE": (
            (14_566, 6_933, 803, all_ok(120), 453_220_546),
            [668_312_503, 682_725_198, 698_097_445, 669_923_797, 698_857_255,
             690_889_793],
            16.294353984804143,
        ),
    }

    def test_faulted_run(self):
        result = run_faulted()
        assert run_counters(result) == (2_302, 501, 127, all_ok(20), 24_562_391)
        assert result.faults_applied == self.FAULTS_APPLIED

    def test_slot_pipelined_run(self):
        sim = build_sim("NONAP", slot_pipelined=True)
        model = RandomizedParameterModel(total_subframes=NUM_SUBFRAMES, seed=7)
        result = sim.run(model, num_subframes=NUM_SUBFRAMES)
        assert run_counters(result) == (8_650, 2_684, 370, all_ok(60), 44_248_288)

    def test_four_policy_power_study(self):
        study = run_power_study(120, seed=5)
        assert list(study.runs) == list(self.STUDY)
        for name, (counters, compute, watts) in self.STUDY.items():
            run = study.runs[name]
            assert run_counters(run.sim) == counters, name
            occupancy = run.sim.trace.occupancy_cycles(CoreState.COMPUTE)
            assert occupancy.tolist() == compute, name
            assert run.mean_total_w() == pytest.approx(watts, rel=1e-12), name
        assert study.mean_power("PowerGating") == pytest.approx(
            13.674687318137474, rel=1e-12
        )


class TestStaleCompletion:
    """A crash leaves the dead core's completion in the event heap.

    Firing it must do nothing: the crash already reported the work as one
    lost ``task-finish`` and handed the job back. In the faulted run cores
    2 and 5 die mid-task and core 7 mid-stall; a crash lands at a dispatch
    instant and no serial continuation spans one in that draw, so a run of
    its own crashes the owner core inside each ``ser`` join.
    """

    def test_a_crashed_core_reports_its_work_lost_once_and_never_runs_again(self):
        recorder = EventRecorder()
        run_faulted(observers=[recorder])
        events = recorder.events
        crashes = {
            e.core: i
            for i, e in enumerate(events)
            if e.kind is EventKind.FAULT and e.data["fault"] == "core-crash"
        }
        assert sorted(crashes) == [2, 5, 7]
        lost = [
            (e.core, e.data["kernel"])
            for e in events
            if e.kind is EventKind.TASK_FINISH and e.data.get("lost")
        ]
        assert sorted(lost) == [(2, "chest"), (5, "chest"), (7, "stall")]
        for core, at in crashes.items():
            after = [e.kind for e in events[at + 1 :] if e.core == core]
            assert after == [EventKind.TASK_FINISH, EventKind.STATE_TRANSITION]

    @pytest.mark.parametrize(
        "kernel, workers, overhead",
        [("combiner", 2, 3_000_000), ("finalize", 4, 1_000_000)],
    )
    def test_a_crash_mid_serial_join_retries_the_user(
        self, kernel, workers, overhead, monkeypatch
    ):
        """Core 0 owns subframe 0's one user and dies at subframe 2's
        dispatch instant, inside that user's ``ser`` join: a per-task
        overhead of most of a DELTA makes the join span the instant."""
        monkeypatch.setattr(cost_module, "TASK_OVERHEAD_CYCLES", overhead)
        cost = CostModel(
            machine=MachineSpec(num_cores=workers + 2, num_workers=workers)
        )
        recorder = EventRecorder()
        result = MachineSimulator(
            cost,
            policy=make_policy("NONAP", workers),
            config=SimConfig(drain_margin_s=0.2),
            observers=[recorder, SchedulerInvariantChecker(strict=True)],
            faults=FaultPlan(
                specs=(FaultSpec(FaultKind.CORE_CRASH, subframe=2, target=0),)
            ),
            resilience=ResilienceConfig(max_retries=2),
        ).run(SteadyStateParameterModel(4, 1, Modulation.QPSK), num_subframes=3)
        events = recorder.events
        (at,) = [i for i, e in enumerate(events) if e.kind is EventKind.FAULT]
        lost = [
            (e.core, e.data["kernel"], e.data["subframe"])
            for e in events
            if e.kind is EventKind.TASK_FINISH and e.data.get("lost")
        ]
        assert lost == [(0, kernel, 0)]
        retries = [
            (e.data["subframe"], e.data["reason"])
            for e in events
            if e.kind is EventKind.USER_RETRY
        ]
        assert retries == [(0, "core-crash")]
        # The stranded completion of the join fires later and does nothing.
        after = [e.kind for e in events[at + 1 :] if e.core == 0]
        assert after == [EventKind.TASK_FINISH, EventKind.STATE_TRANSITION]
        assert result.ledger.counts() == all_ok(3)


def buggy_distribute_work(self, t):
    """The pre-fix ``_distribute_work``: re-registers every deferred core
    in ``_idle_spin`` even when ``_seek_work`` declined because the core
    just went to NAP/DISABLED via ``_go_idle`` — creating idle-set
    double membership."""
    progress = True
    while progress and self._has_stealable_work():
        progress = False
        deferred = []
        while self._has_stealable_work() and self._idle_spin:
            index = min(self._idle_spin)
            self._idle_spin.discard(index)
            if self._seek_work(self._cores[index], t):
                progress = True
            else:
                deferred.append(index)
        self._idle_spin.update(deferred)
    if self._has_stealable_work() and self._idle_nap:
        for index, nap_start in list(self._idle_nap.items()):
            core = self._cores[index]
            if core.wake_scheduled:
                continue
            periods = (t - nap_start) // self._wake_period_cycles + 1
            core.wake_scheduled = True
            self._engine.schedule(
                nap_start + periods * self._wake_period_cycles, core.wake
            )


class TestCheckerCatchesHistoricalBug:
    @pytest.mark.parametrize("policy", ["NAP", "NAP+IDLE"])
    def test_non_strict_checker_flags_double_membership(self, monkeypatch, policy):
        monkeypatch.setattr(
            MachineSimulator, "_distribute_work", buggy_distribute_work
        )
        _, checker, _ = run_checked(policy)
        assert not checker.ok
        assert any("_idle_spin and _disabled" in v for v in checker.violations)

    def test_strict_checker_raises_on_double_membership(self, monkeypatch):
        monkeypatch.setattr(
            MachineSimulator, "_distribute_work", buggy_distribute_work
        )
        with pytest.raises(InvariantViolation, match="idle sets overlap"):
            run_checked("NAP+IDLE", strict=True)

    @pytest.mark.parametrize("policy", ["NONAP", "IDLE"])
    def test_spin_only_policies_unaffected_by_old_code(self, monkeypatch, policy):
        """The bug needed _go_idle to move a declining core out of the spin
        set; NONAP/IDLE decliners legitimately return to _idle_spin."""
        monkeypatch.setattr(
            MachineSimulator, "_distribute_work", buggy_distribute_work
        )
        _, checker, _ = run_checked(policy)
        assert checker.ok, checker.summary()


class TestCheckerReadsTheRunsLedger:
    """Terminal accounting is read from ``SimResult.ledger``, not re-derived
    from ``subframe-terminal`` events: the simulator still emits every
    event below, so only the ledger shows what went wrong."""

    LOST = 5

    def test_strict_checker_names_a_subframe_the_ledger_never_resolved(
        self, monkeypatch
    ):
        resolve = SubframeLedger.resolve

        def drop_one(ledger, subframe_index, state, reason=""):
            if subframe_index == self.LOST:
                return True  # claims the win, records nothing
            return resolve(ledger, subframe_index, state, reason)

        monkeypatch.setattr(SubframeLedger, "resolve", drop_one)
        with pytest.raises(
            InvariantViolation, match=rf"never reached a terminal state: \[{self.LOST}\]"
        ):
            run_checked("NONAP", strict=True)

    def test_a_late_resolution_is_a_violation(self, monkeypatch):
        resolve = SubframeLedger.resolve

        def twice(ledger, subframe_index, state, reason=""):
            won = resolve(ledger, subframe_index, state, reason)
            if subframe_index == self.LOST:
                resolve(ledger, subframe_index, TerminalState.ABORTED, "late")
            return won

        monkeypatch.setattr(SubframeLedger, "resolve", twice)
        result, checker, _ = run_checked("NONAP")
        result.ledger.check()  # the counts still balance ...
        assert checker.violations == [  # ... but exactly-once did not hold
            f"subframe {self.LOST} resolved a second time (aborted); "
            "terminal states are exactly-once"
        ]

    def test_every_run_owns_a_fresh_ledger(self):
        sim = build_sim("NONAP")
        model = RandomizedParameterModel(total_subframes=8, seed=7)
        first = sim.run(model, num_subframes=4)
        second = sim.run(model, num_subframes=4, start=4)
        assert first.ledger is not second.ledger
        assert [first.ledger.dispatched, second.ledger.dispatched] == [4, 4]
        assert second.ledger.unresolved() == []
        assert second.ledger.state_of(4) is TerminalState.OK


def rewrite_events(monkeypatch, rewrite):
    """Mutate what the simulator reports: every event it emits passes
    through ``rewrite(event)``, which returns the events to deliver."""
    resolve_observers = MachineSimulator._resolve_observers

    def resolve(self):
        observers = resolve_observers(self)
        emit = self._emit

        def mutated(event):
            for each in rewrite(event):
                emit(each)

        self._emit = mutated
        return observers

    monkeypatch.setattr(MachineSimulator, "_resolve_observers", resolve)


def twice(kind):
    return lambda event: [event, event] if event.kind is kind else [event]


class TestCheckerCatchesEachViolation:
    """One committed mutation per check: each breaks the simulator in the
    one way its check exists for, and the strict checker must raise with
    that check's own message (the run is the clean one above)."""

    def test_a_task_start_reported_twice_breaks_task_conservation(
        self, monkeypatch
    ):
        rewrite_events(monkeypatch, twice(EventKind.TASK_START))
        with pytest.raises(InvariantViolation, match="task conservation violated"):
            run_checked("NONAP", strict=True)

    def test_a_lost_user_finish_breaks_user_conservation(self, monkeypatch):
        rewrite_events(
            monkeypatch,
            lambda event: [] if event.kind is EventKind.USER_FINISH else [event],
        )
        with pytest.raises(InvariantViolation, match="user conservation violated"):
            run_checked("NONAP", strict=True)

    def test_a_user_adopted_twice_breaks_adoption(self, monkeypatch):
        rewrite_events(monkeypatch, twice(EventKind.USER_START))
        with pytest.raises(InvariantViolation, match=r"adopted users \d+ != finished"):
            run_checked("NONAP", strict=True)

    def test_a_busy_core_outside_compute(self, monkeypatch):
        execute = MachineSimulator._execute_task

        def back_to_spin(self, core, job, cycles, t, stolen, serial=False):
            execute(self, core, job, cycles, t, stolen, serial)
            self._set_state(core, CoreState.SPIN, t)  # still executing

        monkeypatch.setattr(MachineSimulator, "_execute_task", back_to_spin)
        with pytest.raises(
            InvariantViolation, match="is executing while in state spin"
        ):
            run_checked("NONAP", strict=True)

    def test_a_task_started_outside_compute(self, monkeypatch):
        set_state = MachineSimulator._set_state

        def never_compute(self, core, state, t):
            if state is not CoreState.COMPUTE:
                set_state(self, core, state, t)

        monkeypatch.setattr(MachineSimulator, "_set_state", never_compute)
        with pytest.raises(
            InvariantViolation, match=r"task started on core \d+ in state spin"
        ):
            run_checked("NONAP", strict=True)

    def test_a_task_started_on_a_core_still_registered_idle(self, monkeypatch):
        execute = MachineSimulator._execute_task

        def execute_registered(self, core, job, cycles, t, stolen, serial=False):
            if core.state is CoreState.COMPUTE:  # no transition in between
                self._idle_spin.add(core.index)
            execute(self, core, job, cycles, t, stolen, serial)

        monkeypatch.setattr(MachineSimulator, "_execute_task", execute_registered)
        with pytest.raises(
            InvariantViolation, match="still registered in an idle set"
        ):
            run_checked("NONAP", strict=True)

    def test_a_completion_stamped_before_its_dispatch(self, monkeypatch):
        resolve = MachineSimulator._resolve_subframe

        def stamped_early(self, index, t, state=None, reason=""):
            if index >= NUM_SUBFRAMES // 2:
                t = int(self._dispatch_cycle[index]) - 1
            resolve(self, index, t, state, reason)

        monkeypatch.setattr(MachineSimulator, "_resolve_subframe", stamped_early)
        with pytest.raises(InvariantViolation, match="before its own dispatch"):
            run_checked("NONAP", strict=True)

    def test_stamps_off_the_run_clock_break_completion_order(self, monkeypatch):
        resolve = MachineSimulator._resolve_subframe

        def slot_relative(self, index, t, state=None, reason=""):
            resolve(self, index, t, state, reason)
            if index >= NUM_SUBFRAMES // 2:
                # Dispatch and completion read from the subframe's own slot
                # instead of the run's clock: each still looks in order.
                shift = int(self._dispatch_cycle[index])
                self._dispatch_cycle[index] -= shift
                self._complete_cycle[index] -= shift

        monkeypatch.setattr(MachineSimulator, "_resolve_subframe", slot_relative)
        with pytest.raises(InvariantViolation, match="completion order violated"):
            run_checked("NONAP", strict=True)


class TestEnvVarAutoAttach:
    def test_repro_invariants_attaches_strict_checker(self, monkeypatch):
        monkeypatch.setenv("REPRO_INVARIANTS", "1")
        monkeypatch.setattr(
            MachineSimulator, "_distribute_work", buggy_distribute_work
        )
        sim = build_sim("NAP+IDLE")
        model = RandomizedParameterModel(total_subframes=10, seed=7)
        with pytest.raises(InvariantViolation):
            sim.run(model, num_subframes=10)

    def test_unset_or_zero_does_not_attach(self, monkeypatch):
        monkeypatch.setenv("REPRO_INVARIANTS", "0")
        sim = build_sim("NONAP")
        model = RandomizedParameterModel(total_subframes=5, seed=7)
        sim.run(model, num_subframes=5)
        assert sim.observers == []
        assert sim._emit is None


class TestMetricsOverSimulator:
    def test_collector_agrees_with_sim_counters(self):
        collector = TelemetryCollector()
        sim = build_sim("IDLE", observers=[collector])
        model = RandomizedParameterModel(total_subframes=20, seed=3)
        result = sim.run(model, num_subframes=20)
        counters = collector.counters
        assert counters["tasks"] == result.tasks_executed
        assert counters["steals"] == result.steals
        assert collector.sketch("user_span").count == result.users_processed
        assert counters["subframes"] == 20
        assert collector.terminal_counts == {"ok": 20}
        # Per-core utilization covers every worker and lies in [0, 1].
        assert len(collector.per_core_utilization) == NUM_WORKERS
        assert all(0.0 <= u <= 1.0 for u in collector.per_core_utilization)
        assert collector.sketch("subframe_latency").count == 20
