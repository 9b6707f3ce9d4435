"""Discrete-event simulation of the benchmark on a TILEPro64-like machine.

Substitutes for the paper's hardware platform (Section V-B): ``num_workers``
cores execute the Fig. 5 task graph under work stealing, a maintenance
"thread" dispatches one subframe's users every DELTA onto the global user
queue, and a pluggable policy decides how many workers are proactively
napped (NAP) and whether idle workers nap reactively (IDLE).

The simulation is at task granularity: each task's duration comes from the
calibrated :class:`~repro.sim.cost.CostModel`; queue/steal overheads are
folded into the per-task constant. Cores move between four states —
COMPUTE, SPIN (busy-wait polling), NAP (reactive clock-gated idle with
periodic wake checks), DISABLED (proactively napped by the governor) — and
every state segment is binned into 100 ms windows for the power model.

Scheduling fidelity vs. the Pthreads version (Section IV-C):

* an idle worker checks the global user queue before stealing;
* the worker that dequeues a user becomes its *user thread*: it runs that
  user's combiner-weight and finalize joins, processes its own job's tasks
  first, and helps (steals) elsewhere while waiting for stolen results;
* other workers steal individual channel-estimation / symbol tasks.

Periodic nap wake-checks are not simulated as events (that would be ~20 M
events per run); instead a napping core is woken *at its next periodic
boundary* when work exists for it, and the wake-check energy overhead is
charged analytically by the power model from NAP occupancy.

A task's completion is its core's ``finish`` callback, built once per run:
starting a task records what runs in ``core.running`` and pushes one heap
entry, and no callable is created per task. A completion that finds its
core crashed is stale (the crash accounted the work) and does nothing.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from heapq import heappush

import numpy as np

from ..faults.accounting import SubframeLedger, TerminalState
from ..faults.plan import FaultKind, FaultSpec
from ..faults.watchdog import ResilienceConfig
from ..obs.events import Event, EventKind
from ..uplink.parameter_model import ParameterModel
from ..uplink.user import UserParameters
from .cost import CostModel, MachineSpec
from .engine import EventEngine
from .trace import CoreState, OccupancyTrace

__all__ = ["SimConfig", "AlwaysOnPolicy", "SimResult", "MachineSimulator"]

# Module-level names for the core states: reading an enum member off its
# class costs ~0.1 us on CPython 3.11, and the hot path reads one per task.
_COMPUTE, _SPIN, _NAP, _DISABLED = (
    CoreState.COMPUTE, CoreState.SPIN, CoreState.NAP, CoreState.DISABLED
)


@dataclass(frozen=True)
class SimConfig:
    """Simulator tuning knobs.

    ``wake_period_s`` is how often a napping core wakes to look for work
    (the TILEPro64 nap instruction has no external wake-up, Section V-B;
    what the checks cost is folded into NAP's price in
    :mod:`repro.power.model`); ``window_s`` is the trace/power window (the
    paper's 100 ms).
    """

    wake_period_s: float = 1e-3
    window_s: float = 0.1
    drain_margin_s: float = 0.5

    def __post_init__(self) -> None:
        if self.wake_period_s <= 0 or self.window_s <= 0:
            raise ValueError("wake_period_s and window_s must be positive")
        if self.drain_margin_s < 0:
            raise ValueError("drain_margin_s must be >= 0")


class AlwaysOnPolicy:
    """The NONAP/IDLE family: every worker is always available.

    ``reactive_nap`` distinguishes NONAP (False: idle workers busy-spin)
    from IDLE (True: idle workers nap and wake periodically).
    """

    def __init__(self, num_workers: int, reactive_nap: bool = False) -> None:
        self.num_workers = num_workers
        self.reactive_nap = reactive_nap

    @property
    def name(self) -> str:
        return "IDLE" if self.reactive_nap else "NONAP"

    def target_active_workers(
        self, users: list[UserParameters], subframe_index: int
    ) -> int:
        return self.num_workers


class _Job:
    """One user's in-flight task graph."""

    __slots__ = (
        "user",
        "subframe_index",
        "stages",
        "stage_index",
        "ready",
        "outstanding",
        "user_core",
        "continuation_pending",
        "stage_opened_at",
        "stage_kind",
        "cancelled",
    )

    def __init__(
        self, user: UserParameters, subframe_index: int, stages: tuple[tuple, ...]
    ):
        self.user = user
        self.subframe_index = subframe_index
        # The user's priced program (CostModel.stage_program), shared by
        # every job of its shape and never mutated.
        self.stages = stages
        self.stage_index = -1
        self.stage_kind = ""
        # Owner pops from the right (LIFO), thieves pop from the left
        # (FIFO) — a deque keeps both ends O(1) on the hot steal path.
        self.ready: deque[int] = deque()
        self.outstanding = 0
        self.user_core: "_Core | None" = None
        self.continuation_pending = False
        self.stage_opened_at = 0
        # Set when the job is voided (core crash retry, deadline abort):
        # in-flight tasks of a cancelled job finish without advancing it.
        self.cancelled = False


class _Core:
    """One simulated worker core.

    Its event callbacks are built once, with the core: ``finish`` ends
    whatever it is running (a task or a serial continuation, described by
    ``running``), ``wake`` is its periodic nap check and ``enable`` its
    return from DISABLED. Scheduling one allocates only the heap entry.
    """

    __slots__ = (
        "index",
        "state",
        "state_since",
        "job",
        "wake_scheduled",
        "busy",
        "crashed",
        "slow_factor",
        "running",
        "finish",
        "wake",
        "enable",
    )

    def __init__(self, index: int, sim: "MachineSimulator") -> None:
        self.index = index
        self.state = _SPIN
        self.state_since = 0
        self.job: _Job | None = None
        self.wake_scheduled = False
        self.busy = False
        # --- fault-injection state (repro.faults) ---
        # A crashed core reuses the DISABLED occupancy (the power model
        # sees a powered-down core) but can never be re-enabled, so a
        # completion that finds it crashed is stale: the crash accounted it.
        self.crashed = False
        self.slow_factor = 1.0
        # (job, cycles charged, un-slowed cycles, stolen, kernel, serial)
        # of what is executing; None when idle or stalling. A crash reports
        # the charged count and hands back the un-slowed one: the thief
        # that redoes a stolen task applies its own slow_factor.
        self.running: tuple[_Job, int, int, bool, str, bool] | None = None
        self.finish = partial(sim._complete, self)
        self.wake = partial(sim._wake, self)
        self.enable = partial(sim._enable, self)


@dataclass
class SimResult:
    """Everything one simulated run produced."""

    trace: OccupancyTrace
    machine: MachineSpec
    config: SimConfig
    #: Governor decision per subframe (actual worker cap in force).
    active_workers: np.ndarray
    #: Dispatch-to-terminal latency per subframe, seconds (a subframe the
    #: horizon truncated runs to the horizon).
    subframe_latency_s: np.ndarray
    #: Per-subframe total compute cycles (from the cost model).
    subframe_cycles: np.ndarray
    tasks_executed: int
    steals: int
    users_processed: int
    #: The run's one record of how each subframe ended (keyed ``start +
    #: index``): every dispatched subframe resolved exactly once.
    ledger: SubframeLedger
    #: Injected faults that actually applied, in firing order.
    faults_applied: list[dict] = field(default_factory=list)
    shed_users: int = 0
    aborted_users: int = 0
    retried_users: int = 0

    @property
    def activity(self) -> np.ndarray:
        """Per-window measured activity (Eq. 2)."""
        return self.trace.activity()

    def mean_activity(self) -> float:
        return float(self.activity.mean())


class MachineSimulator:
    """Runs a parameter model through the simulated machine.

    Parameters
    ----------
    cost:
        Calibrated cycle cost model (also supplies the machine spec).
    policy:
        Resource-management policy: must expose ``reactive_nap`` and
        ``target_active_workers(users, subframe_index)``.
    config:
        Simulator knobs.
    observers:
        Optional event observers (see :mod:`repro.obs`): callables
        receiving every :class:`~repro.obs.events.Event`, with optional
        ``on_run_start(sim)`` / ``on_run_end(sim, result)`` hooks. When no
        observer is attached the tracing hook is ``None`` and emission
        sites cost a single identity check (no event allocation). Setting
        the ``REPRO_INVARIANTS`` environment variable auto-attaches a
        strict :class:`~repro.obs.invariants.SchedulerInvariantChecker`.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`. Its simulator
        kinds (core crash/stall/slowdown, overload) fire at their planned
        subframes, purely cycle-based — a faulted run is exactly as
        deterministic as a clean one.
    resilience:
        :class:`~repro.faults.watchdog.ResilienceConfig`. The simulator
        uses ``max_retries`` (per-user requeues after a core crash) and
        ``deadline_subframes`` (abort a subframe still pending after that
        many DELTA periods); the wall-clock knobs are threaded-only.
    admission:
        Optional :class:`~repro.faults.admission.AdmissionController`:
        sheds users at dispatch when the Eq. 4 estimate exceeds the
        activity budget (see ``docs/robustness.md``).

    Each :meth:`run` owns one
    :class:`~repro.faults.accounting.SubframeLedger`, returned as
    ``SimResult.ledger``: it is the only record of terminal states.
    """

    def __init__(
        self,
        cost: CostModel,
        policy=None,
        config: SimConfig | None = None,
        slot_pipelined: bool = False,
        observers=None,
        faults=None,
        resilience: ResilienceConfig | None = None,
        admission=None,
    ) -> None:
        self.cost = cost
        self.machine = cost.machine
        self.policy = policy or AlwaysOnPolicy(self.machine.num_workers)
        self.config = config or SimConfig()
        #: Split each user's processing per slot (chest/combine/demodulate
        #: slot 0, then slot 1) instead of the default whole-subframe
        #: stages — an ablation on the Fig. 5 structure.
        self.slot_pipelined = slot_pipelined
        #: Attached event observers (see :mod:`repro.obs`).
        self.observers = list(observers) if observers is not None else []
        self._emit = None
        self.faults = faults
        self.admission = admission
        self._resilience = resilience or ResilienceConfig()

    # ------------------------------------------------------------------ run
    def run(
        self,
        model: ParameterModel,
        num_subframes: int,
        start: int = 0,
    ) -> SimResult:
        if num_subframes < 1:
            raise ValueError("num_subframes must be >= 1")
        machine = self.machine
        cfg = self.config
        clock = machine.clock_hz
        delta = machine.subframe_period_cycles
        window_cycles = int(round(cfg.window_s * clock))
        horizon = num_subframes * delta + int(round(cfg.drain_margin_s * clock))
        num_windows = max(1, -(-horizon // window_cycles))  # ceil: never truncate
        horizon = num_windows * window_cycles

        self._engine = EventEngine()
        self._heap, self._seq = self._engine.heap, self._engine.seq
        self._trace = OccupancyTrace(
            window_cycles=window_cycles,
            num_windows=num_windows,
            num_workers=machine.num_workers,
        )
        self._cores = [_Core(i, self) for i in range(machine.num_workers)]
        self._user_queue: deque[_Job] = deque()
        self._jobs_with_ready: deque[_Job] = deque()
        self._idle_spin: set[int] = set(range(machine.num_workers))
        self._idle_nap: dict[int, int] = {}
        self._disabled: set[int] = set()
        self._active_workers = machine.num_workers
        self._wake_period_cycles = max(1, int(round(cfg.wake_period_s * clock)))
        self._horizon = horizon

        self._tasks_executed = 0
        self._steals = 0
        self._users_processed = 0
        self._active_trace = np.zeros(num_subframes, dtype=np.int64)
        self._dispatch_cycle = np.zeros(num_subframes, dtype=np.int64)
        self._complete_cycle = np.zeros(num_subframes, dtype=np.int64)
        self._pending_users = np.zeros(num_subframes, dtype=np.int64)
        self._subframe_cycles = np.zeros(num_subframes, dtype=np.float64)
        self._start_index = start
        self._num_subframes = num_subframes

        # --- fault-injection / resilience bookkeeping (repro.faults) ---
        self._ledger = SubframeLedger()
        self._sf_shed: set[int] = set()
        self._sf_user_aborted: set[int] = set()
        self._retry_counts: dict[tuple[int, int], int] = {}
        self._faults_applied: list[dict] = []
        self._shed_users = 0
        self._aborted_users = 0
        self._retried_users = 0
        self._overload: dict[int, float] = {}
        if self.faults is not None:
            for spec in self.faults.specs:
                if not 0 <= spec.subframe < num_subframes:
                    continue
                if spec.kind is FaultKind.OVERLOAD:
                    self._overload[spec.subframe] = spec.param
                elif spec.kind in (
                    FaultKind.CORE_STALL,
                    FaultKind.CORE_SLOWDOWN,
                ):
                    # Stalls and slowdowns fire before the subframe's
                    # dispatch (same timestamp, FIFO): they need the core
                    # still idle for the fault to take hold.
                    self._engine.schedule(
                        spec.subframe * delta, self._make_core_fault(spec)
                    )

        observers = self._resolve_observers()
        for observer in observers:
            hook = getattr(observer, "on_run_start", None)
            if hook is not None:
                hook(self)

        for i in range(num_subframes):
            users = model.uplink_parameters(start + i)
            when = i * delta
            self._engine.schedule(
                when, self._make_dispatch(i, users)
            )
        if self.faults is not None:
            # Crashes fire after the subframe's dispatch (same timestamp,
            # FIFO): the fail-stop model is only interesting when the dead
            # core can be holding that subframe's in-flight work.
            for spec in self.faults.specs:
                if (
                    spec.kind is FaultKind.CORE_CRASH
                    and 0 <= spec.subframe < num_subframes
                ):
                    self._engine.schedule(
                        spec.subframe * delta, self._make_core_fault(spec)
                    )
        # Every core looks for work once at t=0 so idle cores settle into
        # the policy's idle state (spin vs nap vs disabled) immediately.
        for core in self._cores:
            self._engine.schedule(0, partial(self._initial_seek, core))
        self._engine.run_until_idle(hard_limit=horizon)
        # Subframes the horizon truncated (still pending at the end of the
        # simulated time) are accounted as aborted: no dispatched subframe
        # ever goes missing from the terminal ledger.
        for subframe in self._ledger.unresolved():
            self._resolve_subframe(
                subframe - start,
                horizon,
                state=TerminalState.ABORTED,
                reason="horizon truncation",
            )
        self._finalize_trace(horizon)

        latency = (self._complete_cycle - self._dispatch_cycle) / clock
        result = SimResult(
            trace=self._trace,
            machine=machine,
            config=cfg,
            active_workers=self._active_trace,
            subframe_latency_s=latency,
            subframe_cycles=self._subframe_cycles,
            tasks_executed=self._tasks_executed,
            steals=self._steals,
            users_processed=self._users_processed,
            ledger=self._ledger,
            faults_applied=list(self._faults_applied),
            shed_users=self._shed_users,
            aborted_users=self._aborted_users,
            retried_users=self._retried_users,
        )
        for observer in observers:
            hook = getattr(observer, "on_run_end", None)
            if hook is not None:
                hook(self, result)
        return result

    def _resolve_observers(self) -> list:
        """Observers for this run; sets the (None-when-off) emit hook."""
        observers = list(self.observers)
        if os.environ.get("REPRO_INVARIANTS", "") not in ("", "0"):
            from ..obs.invariants import SchedulerInvariantChecker

            if not any(
                isinstance(o, SchedulerInvariantChecker) for o in observers
            ):
                observers.append(SchedulerInvariantChecker(strict=True))
        if not observers:
            self._emit = None
        elif len(observers) == 1:
            self._emit = observers[0]
        else:
            fanout = tuple(observers)

            def emit(event, _observers=fanout):
                for observer in _observers:
                    observer(event)

            self._emit = emit
        return observers

    # --------------------------------------------------------------- events
    def _make_dispatch(self, index: int, users: list[UserParameters]):
        def dispatch(t: int) -> None:
            admitted = list(users)
            if self.admission is not None:
                decision = self.admission.admit(
                    admitted, load_factor=self._overload.get(index, 1.0)
                )
                admitted = list(decision.admitted)
                if decision.shed_any:
                    self._sf_shed.add(index)
                    self._shed_users += len(decision.shed)
                    if self._emit is not None:
                        self._emit(
                            Event(
                                EventKind.SHED,
                                t,
                                -1,
                                {
                                    "subframe": index,
                                    "users": len(decision.shed),
                                    "user_ids": list(decision.shed_user_ids),
                                    "estimated_activity": decision.estimated_activity,
                                    "budget_activity": decision.budget_activity,
                                },
                            )
                        )
            self._dispatch_cycle[index] = t
            self._pending_users[index] = len(admitted)
            self._subframe_cycles[index] = sum(
                self.cost.user_cycles(u) for u in admitted
            )
            target = self.policy.target_active_workers(
                admitted, self._start_index + index
            )
            target = max(1, min(self.machine.num_workers, int(target)))
            self._active_trace[index] = target
            if self._emit is not None:
                self._emit(
                    Event(
                        EventKind.GOVERNOR,
                        t,
                        -1,
                        {"subframe": index, "target": target},
                    )
                )
            self._set_active_workers(target, t)
            self._ledger.dispatch(self._start_index + index, len(admitted))
            for user in admitted:
                self._user_queue.append(
                    _Job(
                        user,
                        index,
                        self.cost.stage_program(user, self.slot_pipelined),
                    )
                )
            if self._emit is not None:
                self._emit(
                    Event(
                        EventKind.DISPATCH,
                        t,
                        -1,
                        {
                            "subframe": index,
                            "users": len(admitted),
                            "queue_depth": len(self._user_queue),
                        },
                    )
                )
            if not admitted:
                # Nothing to process: the subframe is terminal at dispatch
                # (shed under overload, or genuinely empty).
                self._resolve_subframe(
                    index,
                    t,
                    reason="all users shed" if index in self._sf_shed else "",
                )
                return
            if self._resilience.deadline_subframes is not None:
                deadline = int(
                    self._resilience.deadline_subframes
                    * self.machine.subframe_period_cycles
                )
                self._engine.schedule(
                    t + deadline, self._make_deadline_check(index)
                )
            self._distribute_work(t)

        return dispatch

    # ------------------------------------------------- faults and resilience
    def _resolve_subframe(
        self,
        index: int,
        t: int,
        state: TerminalState | None = None,
        reason: str = "",
    ) -> None:
        """Resolve one subframe in the run's ledger (first call wins);
        ``t`` is its completion, whatever the state."""
        if state is None:
            if index in self._sf_user_aborted:
                state = TerminalState.ABORTED
            elif index in self._sf_shed:
                state = TerminalState.SHED
            else:
                state = TerminalState.OK
        if not self._ledger.resolve(self._start_index + index, state, reason):
            return
        self._complete_cycle[index] = t
        if self._emit is not None:
            self._emit(
                Event(
                    EventKind.SUBFRAME_TERMINAL,
                    t,
                    -1,
                    {"subframe": index, "state": state.value, "reason": reason},
                )
            )

    def _make_deadline_check(self, index: int):
        def check(t: int) -> None:
            if self._pending_users[index] <= 0:  # resolved: none pending
                return
            self._abort_subframe(index, t, reason="deadline expired")

        return check

    def _abort_subframe(self, index: int, t: int, reason: str) -> None:
        """Give up on a subframe: drop queued users, cancel in-flight jobs.

        In-flight *tasks* of cancelled jobs run to completion (a simulated
        core cannot be preempted mid-task) but their finish is a no-op for
        the job; no new work of this subframe is started.
        """
        dropped = [j for j in self._user_queue if j.subframe_index == index]
        if dropped:
            self._user_queue = deque(
                j for j in self._user_queue if j.subframe_index != index
            )
        for job in dropped:
            job.cancelled = True
            self._abort_user(job, t, was_adopted=False, reason=reason)
        for core in self._cores:
            job = core.job
            if job is not None and job.subframe_index == index:
                core.job = None
                job.user_core = None
                job.cancelled = True
                job.ready.clear()
                self._abort_user(job, t, was_adopted=True, reason=reason)
        self._pending_users[index] = 0
        self._sf_user_aborted.add(index)
        self._resolve_subframe(
            index, t, state=TerminalState.ABORTED, reason=reason
        )

    def _abort_user(
        self, job: _Job, t: int, was_adopted: bool, reason: str
    ) -> None:
        self._aborted_users += 1
        self._sf_user_aborted.add(job.subframe_index)
        if self._emit is not None:
            self._emit(
                Event(
                    EventKind.USER_ABORTED,
                    t,
                    -1,
                    {
                        "subframe": job.subframe_index,
                        "user": job.user.user_id,
                        "was_adopted": was_adopted,
                        "reason": reason,
                    },
                )
            )

    def _retry_or_abort_user(self, job: _Job, t: int, reason: str) -> None:
        """A job lost its user thread: requeue it fresh, or abort it."""
        index = job.subframe_index
        key = (index, job.user.user_id)
        attempts = self._retry_counts.get(key, 0)
        if attempts < self._resilience.max_retries:
            self._retry_counts[key] = attempts + 1
            self._retried_users += 1
            if self._emit is not None:
                self._emit(
                    Event(
                        EventKind.USER_RETRY,
                        t,
                        -1,
                        {
                            "subframe": index,
                            "user": job.user.user_id,
                            "attempt": attempts + 1,
                            "reason": reason,
                        },
                    )
                )
            self._user_queue.append(_Job(job.user, index, job.stages))
            self._distribute_work(t)
            return
        self._abort_user(job, t, was_adopted=True, reason=reason)
        self._pending_users[index] -= 1
        if self._pending_users[index] == 0:
            self._resolve_subframe(
                index, t, state=TerminalState.ABORTED, reason=reason
            )

    def _make_core_fault(self, spec: FaultSpec):
        def fire(t: int) -> None:
            core = self._cores[spec.target % len(self._cores)]
            if spec.kind is FaultKind.CORE_CRASH:
                self._crash_core(core, t)
            elif spec.kind is FaultKind.CORE_STALL:
                self._stall_core(core, max(1, int(spec.param)), t)
            elif spec.kind is FaultKind.CORE_SLOWDOWN:
                self._slow_core(core, float(spec.param), t)

        return fire

    def _record_fault(self, applied: bool, t: int, **data) -> None:
        record = {"applied": applied, "t": int(t), **data}
        self._faults_applied.append(record)
        if self._emit is not None:
            self._emit(Event(EventKind.FAULT, t, record.get("core", -1), record))

    def _crash_core(self, core: _Core, t: int) -> None:
        """Permanently kill one core (Section V's fail-stop model).

        The in-flight task is lost: a stolen task's cycles go back to its
        stage so a live core redoes the work; the core's own job loses its
        user thread and is retried from scratch (or aborted past the
        retry budget). The dead core reuses the DISABLED occupancy, so
        occupancy-trace conservation and the power model hold unchanged.
        """
        if core.crashed:
            self._record_fault(False, t, fault="core-crash", core=core.index)
            return
        self._record_fault(True, t, fault="core-crash", core=core.index)
        core.crashed = True  # strands the in-flight completion
        if core.busy:
            running = core.running
            core.running = None
            core.busy = False
            if running is not None:
                lost_job, lost_cycles, redo_cycles = running[:3]
                if self._emit is not None:
                    self._emit(
                        Event(
                            EventKind.TASK_FINISH,
                            t,
                            core.index,
                            {
                                "cycles": lost_cycles,
                                "lost": True,
                                "kernel": lost_job.stage_kind,
                                "subframe": lost_job.subframe_index,
                            },
                        )
                    )
                if lost_job is not core.job and not lost_job.cancelled:
                    # A stolen task: hand it back to the stage for a live
                    # core to redo (outstanding was never decremented).
                    lost_job.ready.appendleft(redo_cycles)
                    self._jobs_with_ready.append(lost_job)
            elif self._emit is not None:
                self._emit(
                    Event(
                        EventKind.TASK_FINISH,
                        t,
                        core.index,
                        {"lost": True, "kernel": "stall", "subframe": -1},
                    )
                )
        job = core.job
        if job is not None:
            core.job = None
            job.user_core = None
        # Take the dead core out of every scheduling structure before any
        # retry/redistribute below can hand it work.
        self._idle_spin.discard(core.index)
        self._idle_nap.pop(core.index, None)
        self._disabled.add(core.index)
        self._set_state(core, _DISABLED, t)
        if job is not None and not job.cancelled:
            job.cancelled = True
            job.ready.clear()
            self._retry_or_abort_user(job, t, reason="core-crash")
        # Re-engage idle cores: the crash may have returned a stolen task
        # to its stage and/or requeued the dead core's user.
        self._distribute_work(t)

    def _stall_core(self, core: _Core, cycles: int, t: int) -> None:
        """Freeze one core for ``cycles``: it occupies COMPUTE producing
        nothing (a wedged core looks busy to the machine)."""
        if core.crashed or core.busy or core.state is _DISABLED:
            self._record_fault(
                False, t, fault="core-stall", core=core.index, cycles=cycles
            )
            return
        self._record_fault(
            True, t, fault="core-stall", core=core.index, cycles=cycles
        )
        self._idle_spin.discard(core.index)
        self._idle_nap.pop(core.index, None)
        core.busy = True
        core.running = None
        self._set_state(core, _COMPUTE, t)
        self._tasks_executed += 1
        if self._emit is not None:
            self._emit(
                Event(
                    EventKind.TASK_START,
                    t,
                    core.index,
                    {
                        "cycles": cycles,
                        "stolen": False,
                        "kernel": "stall",
                        "subframe": -1,
                    },
                )
            )

        def finish(end: int) -> None:
            if core.crashed:
                return  # crashed mid-stall; the crash accounted the task
            if self._emit is not None:
                self._emit(
                    Event(
                        EventKind.TASK_FINISH,
                        end,
                        core.index,
                        {"cycles": cycles, "kernel": "stall", "subframe": -1},
                    )
                )
            core.busy = False
            self._seek_work(core, end)

        self._engine.schedule(t + cycles, finish)

    def _slow_core(self, core: _Core, factor: float, t: int) -> None:
        """Degrade one core: every subsequent task runs ``factor`` slower
        (thermal-throttling model; already-running tasks are unaffected)."""
        if core.crashed or factor <= 0:
            self._record_fault(
                False, t, fault="core-slowdown", core=core.index, factor=factor
            )
            return
        self._record_fault(
            True, t, fault="core-slowdown", core=core.index, factor=factor
        )
        core.slow_factor = factor

    def _set_active_workers(self, target: int, t: int) -> None:
        previous = self._active_workers
        self._active_workers = target
        if target > previous:
            # Re-enable proactively disabled cores; they notice at their
            # next periodic wake check (modelled as half a period).
            delay = max(1, self._wake_period_cycles // 2)
            for core in self._cores[previous:target]:
                if core.index in self._disabled and not core.crashed:
                    self._disabled.discard(core.index)
                    self._engine.schedule_in(delay, core.enable)
        # Shrinking happens lazily: surplus cores disable themselves when
        # they next look for work (they never abandon an owned job).

    def _initial_seek(self, core: _Core, t: int) -> None:
        if core.busy or core.job is not None:
            return
        if core.state is _SPIN and core.index in self._idle_spin:
            self._idle_spin.discard(core.index)
            self._seek_work(core, t)

    def _enable(self, core: _Core, t: int) -> None:
        """``core.enable``: a re-enabled core comes back from DISABLED."""
        if core.state is _DISABLED and not core.crashed:
            self._set_state(core, _SPIN, t)
            # _seek_work either takes work or re-registers the core as
            # idle; pre-registering here would let _distribute_work
            # dispatch the same (now busy) core twice.
            self._seek_work(core, t)

    # ----------------------------------------------------------- scheduling
    def _set_state(self, core: _Core, state: CoreState, t: int) -> None:
        if core.state is state:
            return
        self._trace.add_segment(core.state, core.state_since, t)
        previous = core.state
        core.state = state
        core.state_since = t
        if self._emit is not None:
            self._emit(
                Event(
                    EventKind.STATE_TRANSITION,
                    t,
                    core.index,
                    {"from": previous.value, "to": state.value},
                )
            )

    def _has_stealable_work(self) -> bool:
        if self._user_queue:
            return True
        while self._jobs_with_ready and not self._jobs_with_ready[0].ready:
            self._jobs_with_ready.popleft()
        return bool(self._jobs_with_ready)

    def _distribute_work(self, t: int) -> None:
        """Hand available work to idle cores (spinners first, then nappers).

        A spinner that declines the available work (e.g. a user thread
        waiting on stolen results cannot adopt a new user) is set aside for
        the rest of the pass so the loop always makes progress. Only cores
        that _go_idle actually returned to the spin set are deferred — a
        decliner that napped or disabled itself instead must not be
        re-registered as a spinner (it would end up in two idle sets at
        once, corrupting the occupancy accounting).
        """
        progress = True
        while progress and self._has_stealable_work():
            progress = False
            deferred: list[int] = []
            while self._has_stealable_work() and self._idle_spin:
                index = min(self._idle_spin)
                self._idle_spin.discard(index)
                if self._seek_work(self._cores[index], t):
                    progress = True
                elif index in self._idle_spin:
                    # _go_idle put it back; keep it out of this pass.
                    self._idle_spin.discard(index)
                    deferred.append(index)
            self._idle_spin.update(deferred)
        if self._has_stealable_work() and self._idle_nap:
            for index, nap_start in list(self._idle_nap.items()):
                core = self._cores[index]
                if core.wake_scheduled:
                    continue
                elapsed = t - nap_start
                periods = elapsed // self._wake_period_cycles + 1
                wake_at = nap_start + periods * self._wake_period_cycles
                core.wake_scheduled = True
                self._engine.schedule(wake_at, core.wake)

    def _wake(self, core: _Core, t: int) -> None:
        """``core.wake``: a napping core's periodic check (at most one
        pending per core, guarded by ``wake_scheduled``)."""
        core.wake_scheduled = False
        if core.state is not _NAP:
            return
        self._idle_nap.pop(core.index, None)
        self._set_state(core, _SPIN, t)
        took_work = self._seek_work(core, t)
        if self._emit is not None:
            self._emit(
                Event(
                    EventKind.WAKE_CHECK,
                    t,
                    core.index,
                    {"took_work": took_work},
                )
            )

    def _go_idle(self, core: _Core, t: int) -> None:
        """No work found: spin or nap according to the policy."""
        if core.job is None and core.index >= self._active_workers:
            self._set_state(core, _DISABLED, t)
            self._disabled.add(core.index)
            return
        if self.policy.reactive_nap:
            self._set_state(core, _NAP, t)
            self._idle_nap[core.index] = t
        else:
            self._set_state(core, _SPIN, t)
            self._idle_spin.add(core.index)

    def _seek_work(self, core: _Core, t: int) -> bool:
        """Find the next thing for a free core to do (Section IV-C order).

        Returns True when the core took work, False when it went idle.
        """
        core.busy = False
        job = core.job
        # 0. A completed stage waiting for this core (its user thread).
        if job is not None and job.continuation_pending:
            job.continuation_pending = False
            if self._owner_advance(core, job, t):
                return True
            # The advance opened a parallel stage (fall through to pick a
            # task from it) or finished the job (job is now None).
            job = core.job
        # 1. This core's own job's ready tasks (owner LIFO).
        if job is not None and job.ready:
            cycles = job.ready.pop()
            self._execute_task(core, job, cycles, t, stolen=False)
            return True
        # A surplus worker (index beyond the governor's target) naps as soon
        # as it holds no job — it neither adopts users nor steals.
        if job is None and core.index >= self._active_workers:
            self._go_idle(core, t)
            return False
        # 2. The global user queue (only a free core can adopt a new user).
        if job is None and self._user_queue:
            new_job = self._user_queue.popleft()
            self._start_job(core, new_job, t)
            return True
        # 3. Steal from any job with ready tasks (thief FIFO).
        victim_job = self._victim(job)
        if victim_job is not None:
            cycles = victim_job.ready.popleft()
            self._steals += 1
            if self._emit is not None:
                owner = victim_job.user_core
                self._emit(
                    Event(
                        EventKind.STEAL,
                        t,
                        core.index,
                        {
                            "victim": owner.index if owner is not None else -1,
                            "subframe": victim_job.subframe_index,
                            "wait": t - victim_job.stage_opened_at,
                        },
                    )
                )
            self._execute_task(core, victim_job, cycles, t, stolen=True)
            return True
        # 4. Nothing to do.
        self._go_idle(core, t)
        return False

    def _victim(self, exclude: _Job | None) -> _Job | None:
        """The first job other than ``exclude`` with a task to steal."""
        jobs = self._jobs_with_ready
        for _ in range(len(jobs)):
            job = jobs[0]
            if not job.ready:
                jobs.popleft()
                continue
            if job is exclude:
                # Rotate: look for a different victim first.
                if len(jobs) == 1:
                    return None
                jobs.rotate(-1)
                continue
            return job
        return None

    def _start_job(self, core: _Core, job: _Job, t: int) -> None:
        self._users_processed += 1
        core.job = job
        job.user_core = core
        if self._emit is not None:
            self._emit(
                Event(
                    EventKind.USER_START,
                    t,
                    core.index,
                    {"subframe": job.subframe_index, "user": job.user.user_id},
                )
            )
        if not self._owner_advance(core, job, t):
            self._seek_work(core, t)

    def _execute_task(
        self,
        core: _Core,
        job: _Job,
        cycles: int,
        t: int,
        stolen: bool,
        serial: bool = False,
    ) -> None:
        """Start a task of ``job`` (or, ``serial``, its continuation) on
        ``core``; ``core.finish`` fires when it ends."""
        core.busy = True
        if core.state is not _COMPUTE:  # mostly it already is
            self._set_state(core, _COMPUTE, t)
        self._tasks_executed += 1
        nominal = cycles
        if core.slow_factor != 1.0:
            cycles = max(1, int(cycles * core.slow_factor))
        kernel = job.stage_kind
        core.running = (job, cycles, nominal, stolen, kernel, serial)
        if self._emit is not None:
            data = {"cycles": cycles, "stolen": stolen}
            if serial:
                data["serial"] = True
            data["kernel"] = kernel
            data["subframe"] = job.subframe_index
            self._emit(Event(EventKind.TASK_START, t, core.index, data))
        # Same (time, seq) key as EventEngine.schedule, minus its past check.
        heappush(self._heap, (t + cycles, next(self._seq), core.finish))

    def _complete(self, core: _Core, end: int) -> None:
        """``core.finish``: what ``core.running`` describes has ended.

        Stale exactly when the core crashed meanwhile: a crashed core never
        runs again, and the crash already reported the work lost.
        """
        if core.crashed:
            return
        job, cycles, _, stolen, kernel, serial = core.running
        core.running = None
        if self._emit is not None:
            data = {"cycles": cycles}
            if serial:
                data["serial"] = True
            else:
                data["stolen"] = stolen
            data["kernel"] = kernel
            data["subframe"] = job.subframe_index
            self._emit(Event(EventKind.TASK_FINISH, end, core.index, data))
        if serial:
            core.busy = False
            if job.cancelled or not self._owner_advance(core, job, end):
                self._seek_work(core, end)
            return
        # A task of a job voided meanwhile (crash retry / deadline abort) is
        # discarded; either way the core moves on.
        if not job.cancelled:
            job.outstanding -= 1
            if job.outstanding == 0 and not job.ready:
                self._stage_complete(job, end)
        self._seek_work(core, end)

    def _stage_complete(self, job: _Job, t: int) -> None:
        """All tasks of the current parallel stage finished."""
        if job.cancelled:
            return
        owner = job.user_core
        assert owner is not None
        if owner.busy:
            # The user thread is off helping elsewhere; it advances the job
            # when it next looks for work (Section IV-C's wait-and-help).
            job.continuation_pending = True
            return
        # The user thread was idle-waiting (spin or nap): it resumes at
        # once — remove it from the idle sets first.
        self._idle_spin.discard(owner.index)
        self._idle_nap.pop(owner.index, None)
        if not self._owner_advance(owner, job, t):
            self._seek_work(owner, t)

    def _advance_stage(self, job: _Job, t: int) -> str:
        """Move the job to its next stage; returns "par", "ser" or "done".

        A parallel stage's tasks become stealable immediately; the owner
        core is engaged by the caller (it competes for its own tasks like
        the Pthreads user thread draining its local queue).
        """
        job.stage_index += 1
        if job.stage_index >= len(job.stages):
            return "done"
        stage = job.stages[job.stage_index]
        job.stage_kind = stage[-1]
        if stage[0] == "par":
            job.ready = deque(stage[1])
            job.outstanding = len(job.ready)
            if not job.ready:  # degenerate empty fan-out
                return self._advance_stage(job, t)
            job.stage_opened_at = t
            self._jobs_with_ready.append(job)
            return "par"
        return "ser"

    def _owner_advance(self, core: _Core, job: _Job, t: int) -> bool:
        """Advance the owned job; True when this call engaged the core."""
        outcome = self._advance_stage(job, t)
        if outcome == "ser":
            # The serial stage (combiner/finalize) runs on the owner.
            cycles = job.stages[job.stage_index][1]
            self._execute_task(core, job, cycles, t, stolen=False, serial=True)
            return True
        if outcome == "done":
            self._finish_job(core, t)
            return False
        # "par": hand surplus tasks to other cores; the caller's subsequent
        # _seek_work lets the owner grab its own first task.
        self._distribute_work(t)
        return False

    def _finish_job(self, core: _Core, t: int) -> None:
        """Bookkeeping when a job's last stage completes (no work seeking)."""
        job = core.job
        assert job is not None
        core.job = None
        job.user_core = None
        index = job.subframe_index
        self._pending_users[index] -= 1
        if self._emit is not None:
            self._emit(
                Event(
                    EventKind.USER_FINISH,
                    t,
                    core.index,
                    {
                        "subframe": index,
                        "user": job.user.user_id,
                        "pending": int(self._pending_users[index]),
                    },
                )
            )
        if self._pending_users[index] == 0:
            self._resolve_subframe(index, t)

    def _finalize_trace(self, horizon: int) -> None:
        for core in self._cores:
            self._trace.add_segment(core.state, core.state_since, horizon)
            core.state_since = horizon
