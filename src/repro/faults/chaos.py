"""Seeded chaos campaigns: run the fault matrix, print a survival report.

A campaign is a *static* scenario matrix — backends x fault-kind groups x
seeds — built entirely from the campaign seed list, so two invocations
with the same arguments run byte-identical fault plans. Every scenario is
run twice (run + replay) and must satisfy these survival checks:

1. **terminates** — the backend returns instead of wedging (threaded
   scenarios carry a drain timeout so a hang is a loud failure);
2. **accounts** — the run's :class:`~repro.faults.accounting.SubframeLedger`
   passes :meth:`~repro.faults.accounting.SubframeLedger.check`;
3. **invariants** (sim only) — the attached
   :class:`~repro.obs.invariants.SchedulerInvariantChecker` reports no
   violations;
4. **replays** — the second run with the same seed produces the identical
   terminal-state fingerprint.

This module imports the threaded runtime and the uplink pipeline, so it is
*not* re-exported from the package root — import it explicitly
(``from repro.faults import chaos``) or go through ``repro chaos``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .accounting import SubframeLedger, TerminalState
from .admission import AdmissionController
from .plan import FaultKind, FaultPlan
from .watchdog import ResilienceConfig

__all__ = [
    "ChaosScenario",
    "ScenarioOutcome",
    "SurvivalReport",
    "build_matrix",
    "ledger_fingerprint",
    "run_campaign",
    "run_scenario",
]

#: Fault-kind groups exercised per (backend, seed) cell of the matrix.
SIM_GROUPS: tuple[tuple[str, tuple[FaultKind, ...]], ...] = (
    ("crash", (FaultKind.CORE_CRASH,)),
    ("stall", (FaultKind.CORE_STALL,)),
    ("slowdown", (FaultKind.CORE_SLOWDOWN,)),
    ("overload", (FaultKind.OVERLOAD,)),
    ("mixed", (FaultKind.CORE_CRASH, FaultKind.CORE_STALL,
               FaultKind.CORE_SLOWDOWN, FaultKind.OVERLOAD)),
    ("deadline", (FaultKind.CORE_STALL,)),
)

THREADED_GROUPS: tuple[tuple[str, tuple[FaultKind, ...]], ...] = (
    ("death", (FaultKind.WORKER_DEATH,)),
    ("hang", (FaultKind.WORKER_HANG,)),
    ("task-exc", (FaultKind.TASK_EXCEPTION,)),
    ("payload", (FaultKind.PAYLOAD_BITFLIP, FaultKind.PAYLOAD_NAN)),
    ("mixed", (FaultKind.WORKER_DEATH, FaultKind.TASK_EXCEPTION,
               FaultKind.PAYLOAD_BITFLIP)),
)

#: Multiprocess scenarios: same fault families as the threaded runtime,
#: but ``WORKER_DEATH`` is a real ``SIGKILL``-ed pool process. Not part
#: of the default campaign (spawn cost); opt in with
#: ``repro chaos --backend multiprocess`` (the CI multiprocess-smoke job
#: does).
MULTIPROCESS_GROUPS = THREADED_GROUPS

#: Campaign sizes. ``smoke`` is the CI gate; ``default`` the local run.
_SCALES = {
    "smoke": {"num_subframes": 6, "num_workers": 4, "max_users": 3,
              "faults_per_kind": 1},
    "default": {"num_subframes": 16, "num_workers": 8, "max_users": 4,
                "faults_per_kind": 2},
}

#: Injected hangs are clamped to this in campaigns: long enough to stress
#: the runtime, short enough that a full matrix stays in CI budget.
_CAMPAIGN_HANG_S = 0.2

#: Survival-report column (header, width) per terminal state.
_STATE_COLUMNS = dict(
    zip(TerminalState, (("ok", 3), ("crc", 4), ("shed", 4), ("abrt", 4)))
)


@dataclass(frozen=True)
class ChaosScenario:
    """One cell of the campaign matrix, with its plan fully materialized."""

    name: str
    backend: str  # "sim" | "threaded" | "multiprocess"
    seed: int
    plan: FaultPlan
    num_subframes: int
    num_workers: int
    max_users: int
    resilience: ResilienceConfig

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "backend": self.backend,
            "seed": self.seed,
            "plan": self.plan.to_dict(),
            "num_subframes": self.num_subframes,
            "num_workers": self.num_workers,
        }


@dataclass
class ScenarioOutcome:
    """Survival verdict for one scenario (run + replay)."""

    scenario: ChaosScenario
    survived: bool
    checks: dict = field(default_factory=dict)  # check name -> bool
    counts: dict = field(default_factory=dict)  # terminal-state counts
    dispatched: int = 0
    wall_s: float = 0.0
    error: str = ""
    # SLO telemetry of the first run (timing-dependent, so deliberately
    # NOT part of the replay fingerprint).
    slo_report: dict | None = None

    @property
    def label(self) -> str:
        return f"{self.scenario.backend}/{self.scenario.name}@s{self.scenario.seed}"


@dataclass
class SurvivalReport:
    """Campaign result: all outcomes plus the aggregate verdict."""

    outcomes: list[ScenarioOutcome]

    @property
    def passed(self) -> bool:
        return bool(self.outcomes) and all(o.survived for o in self.outcomes)

    @property
    def survived_count(self) -> int:
        return sum(1 for o in self.outcomes if o.survived)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "scenarios": len(self.outcomes),
            "survived": self.survived_count,
            "outcomes": [
                {
                    "scenario": o.label,
                    "survived": o.survived,
                    "checks": o.checks,
                    "dispatched": o.dispatched,
                    "counts": o.counts,
                    "wall_s": round(o.wall_s, 3),
                    "error": o.error,
                    "slo_report": o.slo_report,
                }
                for o in self.outcomes
            ],
        }

    def format(self) -> str:
        lines = ["chaos survival report", "=" * 74]
        states = " ".join(f"{h:>{w}}" for h, w in _STATE_COLUMNS.values())
        header = (f"{'scenario':<28} {'verdict':<8} {'disp':>4} "
                  f"{states} {'wall':>7}")
        lines.append(header)
        lines.append("-" * 74)
        for o in self.outcomes:
            counts = " ".join(
                f"{o.counts.get(state.value, 0):>{w}}"
                for state, (_, w) in _STATE_COLUMNS.items()
            )
            verdict = "SURVIVED" if o.survived else "FAILED"
            lines.append(
                f"{o.label:<28} {verdict:<8} {o.dispatched:>4} "
                f"{counts} {o.wall_s:>6.2f}s"
            )
            if not o.survived:
                failed = [k for k, v in o.checks.items() if not v]
                detail = o.error or ", ".join(failed)
                lines.append(f"    !! {detail}")
        lines.append("-" * 74)
        lines.append(
            f"{self.survived_count}/{len(self.outcomes)} scenarios survived; "
            f"every dispatched subframe reached exactly one terminal state "
            f"({' | '.join(state.value for state in TerminalState)})"
            if self.passed
            else f"{self.survived_count}/{len(self.outcomes)} scenarios "
            f"survived — campaign FAILED"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------- matrix
def _scenario_plan(
    group: str,
    kinds: tuple[FaultKind, ...],
    seed: int,
    num_subframes: int,
    num_workers: int,
    faults_per_kind: int,
) -> FaultPlan:
    if group == "deadline":
        # Wedge every worker hard at one subframe so only the cycle
        # deadline can resolve it: the abort path must fire.
        from .plan import FaultSpec

        return FaultPlan(
            specs=tuple(
                FaultSpec(kind=FaultKind.CORE_STALL, subframe=1, target=w,
                          param=200_000_000.0, seed=seed)
                for w in range(num_workers)
            ),
            seed=seed,
        )
    plan = FaultPlan.generate(
        seed=seed,
        num_subframes=num_subframes,
        num_workers=num_workers,
        kinds=kinds,
        faults_per_kind=faults_per_kind,
    )
    # Campaign-friendly hang durations (plans are immutable; rebuild).
    specs = tuple(
        replace(s, param=_CAMPAIGN_HANG_S)
        if s.kind is FaultKind.WORKER_HANG
        else s
        for s in plan.specs
    )
    return FaultPlan(specs=specs, seed=plan.seed)


def build_matrix(
    scale: str = "default",
    seeds: int = 3,
    backends: tuple[str, ...] = ("sim", "threaded"),
) -> list[ChaosScenario]:
    """Materialize the campaign matrix for ``seeds`` consecutive seeds.

    ``backends`` selects from ``sim``/``threaded``/``multiprocess``; the
    default leaves multiprocess out (process-pool spawns dominate its
    wall clock), so the dedicated smoke job opts in explicitly.
    """
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r} (choose from {sorted(_SCALES)})")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    unknown = set(backends) - set(_RUNNERS)
    if unknown:
        raise ValueError(f"unknown chaos backend(s): {sorted(unknown)}")
    params = _SCALES[scale]
    # Pools pinned small (spawn cost) but always one worker larger than
    # the death budget: a survivor must exist, so the terminal-state
    # outcome stays timing-independent and the replay fingerprint check is
    # meaningful.
    mp_workers = max(2, params["faults_per_kind"] + 1)
    # backend -> (fault groups, workers, retry budget)
    table = {
        "sim": (SIM_GROUPS, params["num_workers"], 1),
        "threaded": (THREADED_GROUPS, params["num_workers"], 2),
        "multiprocess": (MULTIPROCESS_GROUPS, mp_workers, 2),
    }
    scenarios: list[ChaosScenario] = []
    for seed in range(seeds):
        for backend, (groups, workers, retries) in table.items():
            if backend not in backends:
                continue
            for group, kinds in groups:
                if backend == "sim":
                    resilience = ResilienceConfig(
                        max_retries=retries,
                        deadline_subframes=3.0 if group == "deadline" else None,
                    )
                else:
                    resilience = ResilienceConfig(
                        max_retries=retries, drain_timeout_s=120.0
                    )
                scenarios.append(
                    ChaosScenario(
                        name=group,
                        backend=backend,
                        seed=seed,
                        plan=_scenario_plan(
                            group, kinds, seed,
                            params["num_subframes"], workers,
                            params["faults_per_kind"],
                        ),
                        num_subframes=params["num_subframes"],
                        num_workers=workers,
                        max_users=params["max_users"],
                        resilience=resilience,
                    )
                )
    return scenarios


def ledger_fingerprint(ledger: SubframeLedger) -> dict:
    """Replay fingerprint of a ledger: terminal-state counts + state map.

    Folding the per-terminal-state *counts* (ok/crc_failed/shed/aborted)
    and the per-subframe state assignment into every backend's replay
    fingerprint closes a blind spot: a run that sheds or aborts
    *different* subframes while producing the same survivor result set
    used to fingerprint as identical.
    """
    summary = ledger.summary()
    return {
        "counts": summary["counts"],
        "states": {
            int(index): entry["state"]
            for index, entry in summary["resolved"].items()
        },
    }


# ------------------------------------------------------------- execution
def _run_sim(scenario: ChaosScenario) -> tuple:
    """One simulator run; returns (fingerprint, ledger, checker, slo)."""
    from ..obs.invariants import SchedulerInvariantChecker
    from ..obs.slo import SLOEngine
    from ..power.estimator import calibrate_from_cost_model
    from ..sim.cost import CostModel, MachineSpec
    from ..sim.machine import MachineSimulator, SimConfig
    from ..uplink.parameter_model import RandomizedParameterModel

    cost = CostModel(
        machine=MachineSpec(
            num_cores=scenario.num_workers + 2,
            num_workers=scenario.num_workers,
        )
    )
    checker = SchedulerInvariantChecker(strict=False)
    engine = SLOEngine()
    sim = MachineSimulator(
        cost,
        config=SimConfig(drain_margin_s=0.2),
        observers=[checker, engine],
        faults=scenario.plan,
        resilience=scenario.resilience,
        admission=AdmissionController(calibrate_from_cost_model(cost)),
    )
    model = RandomizedParameterModel(
        total_subframes=scenario.num_subframes,
        seed=scenario.seed,
        max_users=scenario.max_users,
    )
    result = sim.run(model, num_subframes=scenario.num_subframes)
    fingerprint = {
        "tasks": result.tasks_executed,
        "users": result.users_processed,
        "shed": result.shed_users,
        "aborted": result.aborted_users,
        "retried": result.retried_users,
        "ledger": ledger_fingerprint(result.ledger),
    }
    return fingerprint, result.ledger, checker, engine.slo_report()


def _run_runtime(scenario: ChaosScenario) -> tuple:
    """One scheduler-runtime run; returns (fingerprint, ledger, None, slo).

    One runner for every :func:`~repro.sched.make_runtime` backend. The
    invariant checker validates simulator state only, so none is
    attached here: the ledger is what these runs are checked against.
    On ``multiprocess`` the WORKER_DEATH faults SIGKILL real pool
    processes, so the run proves orphan reclamation and bounded retry
    against genuine process loss.
    """
    from ..obs.slo import SLOEngine
    from ..sched import make_runtime
    from ..uplink.parameter_model import RandomizedParameterModel
    from ..uplink.subframe import SubframeFactory
    from .injector import corrupt_subframes

    model = RandomizedParameterModel(
        total_subframes=scenario.num_subframes,
        seed=scenario.seed,
        max_users=scenario.max_users,
    )
    factory = SubframeFactory(seed=scenario.seed)
    subframes = [
        factory.synthesize(model.uplink_parameters(i), i)
        for i in range(scenario.num_subframes)
    ]
    subframes = corrupt_subframes(subframes, scenario.plan)
    engine = SLOEngine()
    runtime = make_runtime(
        scenario.backend,
        num_workers=scenario.num_workers,
        observers=[engine],
        faults=scenario.plan,
        resilience=scenario.resilience,
    )
    results = runtime.run(subframes)
    fingerprint = {
        "counts": runtime.ledger.counts(),
        "ledger": ledger_fingerprint(runtime.ledger),
        "per_subframe": {
            r.subframe_index: sorted(
                (u.user_id, bool(u.crc_ok)) for u in r.user_results
            )
            for r in results
        },
        "aborted": {
            r.subframe_index: sorted(r.aborted_user_ids)
            for r in results
            if r.aborted_user_ids
        },
    }
    return fingerprint, runtime.ledger, None, engine.slo_report()


_RUNNERS = {
    "sim": _run_sim,
    "threaded": _run_runtime,
    "multiprocess": _run_runtime,
}


def run_scenario(scenario: ChaosScenario) -> ScenarioOutcome:
    """Run one scenario twice (run + replay) and score the survival checks."""
    runner = _RUNNERS[scenario.backend]
    outcome = ScenarioOutcome(scenario=scenario, survived=False)
    start = time.perf_counter()
    try:
        fingerprint, ledger, checker, slo_report = runner(scenario)
        replay_fp, _, _, _ = runner(scenario)
    except Exception as exc:  # scenario crash/hang is a FAILED verdict
        outcome.wall_s = time.perf_counter() - start
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.checks = {"terminates": False}
        return outcome
    outcome.wall_s = time.perf_counter() - start
    outcome.slo_report = slo_report
    outcome.counts = ledger.counts()
    outcome.dispatched = ledger.dispatched
    outcome.checks = {"terminates": True, "accounts": ledger.ok}
    if checker is not None:
        outcome.checks["invariants"] = checker.ok
    # Both fingerprints carry their ledger's counts and state map.
    outcome.checks["replays"] = fingerprint == replay_fp
    if checker is not None and not checker.ok:
        outcome.error = checker.summary()
    outcome.survived = all(outcome.checks.values())
    return outcome


def run_campaign(matrix: list[ChaosScenario], progress=None) -> SurvivalReport:
    """Run a :func:`build_matrix` matrix; ``progress`` (if given) is called
    per scenario."""
    outcomes = []
    for scenario in matrix:
        outcome = run_scenario(scenario)
        outcomes.append(outcome)
        if progress is not None:
            verdict = "SURVIVED" if outcome.survived else "FAILED"
            progress(f"  {outcome.label:<28} {verdict} ({outcome.wall_s:.2f}s)")
    return SurvivalReport(outcomes=outcomes)
