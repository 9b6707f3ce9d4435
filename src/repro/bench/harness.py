"""Scenario matrix and report writer behind ``repro bench``.

Six pinned scenarios cover the execution backends and both paper
policies:

* ``serial`` — the Section IV-A serial reference over synthesized
  subframes, each Fig. 5 kernel timed with ``perf_counter_ns``;
* ``vectorized`` — the batched fast path (``repro.uplink.vectorized``)
  over the *same* subframes, per-stage wall-clock attributed through the
  injected ``stage_timer`` and verified bit-exact against the serial
  results in the same run (the ``bit_exact_vs_serial`` field);
* ``threaded`` — the Pthreads-twin runtime with the
  :class:`~repro.obs.profiling.Profiler` attached (wall-clock kernels);
* ``multiprocess`` — the spawn-based process pool over shared-memory
  grids; pool startup is reported separately from steady-state
  throughput, and the row records ``host_cpus`` because scaling over
  ``vectorized`` needs real cores (GIL-free);
* ``sim-nonap`` / ``sim-nap-idle`` — the timing simulator under the two
  bounding policies; these also report a fully *deterministic* block
  (kernel cycles, deadline-miss rate, task/steal counts) that is
  machine-independent, so CI can compare it across hosts with tight
  thresholds while wall-clock throughput is compared loosely;
* ``serve`` — the streaming service mode (``repro serve``) as an unpaced
  multi-cell flood on the vectorized backend: sustained users/hour with
  backpressure and admission shedding active, per-kernel wall clock
  attributed through a stage-timed processor injected into the serve
  loop, and the ledger invariant checked (``ledger_ok``).

Reports are schema ``repro-bench/1``; :func:`validate_bench_report`
checks structure without any external dependency.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

from ..ioutil import atomic_write_json
from ..obs.profiling import Profiler
from ..obs.slo import SLOEngine
from ..obs.telemetry import TelemetryCollector
from ..phy.params import Modulation
from ..uplink.subframe import SubframeFactory
from ..uplink.tasks import KERNEL_KINDS, UserJob
from ..uplink.user import UserParameters

__all__ = [
    "SCALES",
    "SCHEMA_VERSION",
    "BenchScale",
    "default_report_path",
    "git_revision",
    "run_bench",
    "validate_bench_report",
    "write_bench_report",
]

SCHEMA_VERSION = "repro-bench/1"

#: Scenario names in matrix order.
SCENARIOS = (
    "serial",
    "vectorized",
    "threaded",
    "multiprocess",
    "sim-nonap",
    "sim-nap-idle",
    "serve",
)


@dataclass(frozen=True)
class BenchScale:
    """One pinned scenario-matrix size.

    ``sim_subframes`` drives the simulator scenarios;
    ``functional_subframes``/``functional_users`` size the serial and
    threaded scenarios (which run the real numpy PHY and are orders of
    magnitude heavier per subframe); ``workers`` is the simulated worker
    count and ``threads`` the real thread count.
    """

    name: str
    sim_subframes: int
    functional_subframes: int
    functional_users: int
    workers: int
    threads: int


SCALES: dict[str, BenchScale] = {
    "smoke": BenchScale("smoke", 60, 2, 2, 8, 2),
    "default": BenchScale("default", 400, 4, 3, 8, 4),
    "paper": BenchScale("paper", 68_000, 8, 4, 62, 4),
}


def git_revision(fallback: str = "unknown") -> str:
    """Short git revision of the working tree, or ``fallback``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return fallback
    return out.stdout.strip() or fallback


def default_report_path() -> str:
    return f"BENCH_{git_revision()}.json"


# --------------------------------------------------------------- scenarios
_USER_POOL = (
    (8, 1, Modulation.QPSK),
    (16, 2, Modulation.QAM16),
    (24, 2, Modulation.QAM64),
    (12, 1, Modulation.QPSK),
)


def _functional_subframes(scale: BenchScale, seed: int):
    """Synthesized subframes for the serial/threaded scenarios."""
    factory = SubframeFactory(seed=seed)
    subframes = []
    for index in range(scale.functional_subframes):
        users = [
            UserParameters(uid, prb, layers, modulation)
            for uid, (prb, layers, modulation) in enumerate(
                _USER_POOL[: scale.functional_users]
            )
        ]
        subframes.append(factory.synthesize(users, index))
    return subframes


def _breakdown_from_totals(totals: dict[str, list[int]]) -> dict[str, dict]:
    grand = sum(t for t, _ in totals.values()) or 1
    return {
        name: {
            "count": count,
            "total": int(total),
            "mean": total / count if count else 0.0,
            "share": total / grand,
        }
        for name, (total, count) in totals.items()
    }


def run_serial_scenario(scale: BenchScale, seed: int) -> dict:
    """The serial reference, with per-kernel wall-clock attribution."""
    subframes = _functional_subframes(scale, seed)
    totals: dict[str, list[int]] = {k: [0, 0] for k in KERNEL_KINDS}

    def timed(kernel: str, fn: Callable[[], Any]) -> None:
        begin = time.perf_counter_ns()
        fn()
        totals[kernel][0] += time.perf_counter_ns() - begin
        totals[kernel][1] += 1

    start = time.perf_counter()
    for subframe in subframes:
        for user_slice in subframe.slices:
            job = UserJob(user_slice, subframe.grid)
            for task in job.chest_tasks():
                timed("chest", task)
            timed("combiner", job.run_combiner)
            for task in job.data_tasks():
                timed("symbol", task)
            timed("finalize", job.finalize)
    wall_s = time.perf_counter() - start
    return {
        "backend": "serial",
        "subframes": len(subframes),
        "users": sum(len(s.slices) for s in subframes),
        "wall_s": wall_s,
        "throughput_sf_per_s": len(subframes) / wall_s if wall_s else 0.0,
        "kernel_breakdown": _breakdown_from_totals(totals),
    }


def run_vectorized_scenario(scale: BenchScale, seed: int) -> dict:
    """The batched fast path, stage-timed and verified against serial.

    The per-kernel wall clock comes from a ``stage_timer`` factory passed
    into :func:`repro.uplink.vectorized.process_subframe_vectorized` — the
    vectorized module itself never reads the host clock (it stays
    determinism-lint clean); the bench harness owns all timing. Every
    subframe's results are also recomputed on the serial reference and
    compared bit-for-bit, so the report carries its own equivalence proof.
    """
    from ..uplink.serial import process_subframe_serial
    from ..uplink.vectorized import process_subframe_vectorized

    subframes = _functional_subframes(scale, seed)
    totals: dict[str, list[int]] = {k: [0, 0] for k in KERNEL_KINDS}

    @contextmanager
    def stage_timer(kernel: str, batch: int):
        begin = time.perf_counter_ns()
        try:
            yield
        finally:
            totals[kernel][0] += time.perf_counter_ns() - begin
            totals[kernel][1] += 1

    start = time.perf_counter()
    results = [
        process_subframe_vectorized(subframe, stage_timer=stage_timer)
        for subframe in subframes
    ]
    wall_s = time.perf_counter() - start
    bit_exact = all(
        result.equals(process_subframe_serial(subframe))
        for result, subframe in zip(results, subframes)
    )
    return {
        "backend": "vectorized",
        "subframes": len(subframes),
        "users": sum(len(s.slices) for s in subframes),
        "wall_s": wall_s,
        "throughput_sf_per_s": len(subframes) / wall_s if wall_s else 0.0,
        "kernel_breakdown": _breakdown_from_totals(totals),
        "bit_exact_vs_serial": bit_exact,
    }


def run_threaded_scenario(scale: BenchScale, seed: int) -> dict:
    """The thread runtime with the profiler attached (wall nanoseconds)."""
    from ..sched.threaded import ThreadedRuntime
    from ..sim.cost import DEFAULT_MACHINE

    subframes = _functional_subframes(scale, seed)
    deadline_ns = DEFAULT_MACHINE.subframe_period_s * 1e9
    profiler = Profiler(keep_spans=False, deadline=deadline_ns)
    engine = SLOEngine(
        TelemetryCollector(deadline=deadline_ns, workers=scale.threads)
    )
    runtime = ThreadedRuntime(
        num_workers=scale.threads,
        steal_seed=seed,
        observers=[profiler, engine],
    )
    start = time.perf_counter()
    results = runtime.run(subframes)
    wall_s = time.perf_counter() - start
    engine.evaluate(engine.telemetry._last_t)
    return {
        "backend": "threaded",
        "subframes": len(results),
        "workers": scale.threads,
        "wall_s": wall_s,
        "throughput_sf_per_s": len(results) / wall_s if wall_s else 0.0,
        # Spans cover all four kernels (combiner/finalize run inline on the
        # user thread, so they never appear as task events); the task view
        # is kept alongside for the steal-aware parallel-stage numbers.
        "kernel_breakdown": profiler.kernel_breakdown("spans"),
        "task_breakdown": profiler.kernel_breakdown("tasks"),
        "slo_report": engine.slo_report(),
    }


def run_multiprocess_scenario(scale: BenchScale, seed: int) -> dict:
    """The spawn-based process pool over shared-memory subframe grids.

    Pool startup (spawn + NumPy re-import per child) is timed separately
    (``startup_s``) from the steady-state submit→drain phase, so
    ``throughput_sf_per_s`` reflects what a long-running receiver sees.
    Results are verified bit-exact against the serial reference in the
    same run, and the row records the host's core count: speedup over
    ``vectorized`` is only expected when ``host_cpus`` exceeds the pool
    size (the pool escapes the GIL, not the machine).
    """
    from ..sched.multiprocess import MultiprocessRuntime
    from ..sim.cost import DEFAULT_MACHINE
    from ..uplink.serial import process_subframe_serial

    subframes = _functional_subframes(scale, seed)
    deadline_ns = DEFAULT_MACHINE.subframe_period_s * 1e9
    profiler = Profiler(keep_spans=False, deadline=deadline_ns)
    runtime = MultiprocessRuntime(
        num_workers=scale.threads, observers=[profiler]
    )
    start = time.perf_counter()
    runtime.start()
    startup_s = time.perf_counter() - start
    try:
        start = time.perf_counter()
        for subframe in subframes:
            runtime.submit(subframe)
        runtime.drain()
        wall_s = time.perf_counter() - start
        results = runtime.collect_results()
    finally:
        runtime.close()
    bit_exact = all(
        result.equals(process_subframe_serial(subframe))
        for result, subframe in zip(results, subframes)
    )
    return {
        "backend": "multiprocess",
        "subframes": len(results),
        "workers": scale.threads,
        "host_cpus": os.cpu_count(),
        "startup_s": startup_s,
        "wall_s": wall_s,
        "throughput_sf_per_s": len(results) / wall_s if wall_s else 0.0,
        "kernel_breakdown": profiler.kernel_breakdown("tasks"),
        "bit_exact_vs_serial": bit_exact,
    }


def _make_sim(scale: BenchScale, policy_name: str, observers):
    from ..power.estimator import calibrate_from_cost_model
    from ..power.governor import make_policy
    from ..sim.cost import CostModel, MachineSpec
    from ..sim.machine import MachineSimulator, SimConfig

    cost = CostModel(
        machine=MachineSpec(
            num_cores=scale.workers + 2, num_workers=scale.workers
        )
    )
    estimator = calibrate_from_cost_model(cost)
    policy = make_policy(policy_name, scale.workers, estimator)
    return MachineSimulator(
        cost,
        policy=policy,
        config=SimConfig(drain_margin_s=0.2),
        observers=observers,
    )


def run_sim_scenario(scale: BenchScale, seed: int, policy_name: str) -> dict:
    """One simulator run; deterministic block + harness wall throughput."""
    from ..uplink.parameter_model import RandomizedParameterModel

    profiler = Profiler(keep_spans=False)
    sim = _make_sim(scale, policy_name, [profiler])
    model = RandomizedParameterModel(
        total_subframes=scale.sim_subframes, seed=seed
    )
    start = time.perf_counter()
    result = sim.run(model, num_subframes=scale.sim_subframes)
    wall_s = time.perf_counter() - start
    kernel_cycles = {
        name: entry["total"]
        for name, entry in profiler.kernel_breakdown("tasks").items()
    }
    return {
        "backend": "sim",
        "policy": policy_name,
        "subframes": scale.sim_subframes,
        "workers": scale.workers,
        "wall_s": wall_s,
        "throughput_sf_per_s": (
            scale.sim_subframes / wall_s if wall_s else 0.0
        ),
        "kernel_breakdown": profiler.kernel_breakdown("tasks"),
        "deterministic": {
            "tasks_executed": result.tasks_executed,
            "steals": result.steals,
            "users_processed": result.users_processed,
            "total_subframe_cycles": float(result.subframe_cycles.sum()),
            "kernel_cycles": kernel_cycles,
            "mean_activity": result.mean_activity(),
            "deadline_miss_rate": profiler.deadline_miss_rate(),
        },
    }


def run_serve_scenario(scale: BenchScale, seed: int) -> dict:
    """The streaming service mode as an unpaced multi-cell flood.

    Arrivals are offered as fast as the loop can generate them (no DELTA
    pacing), so the row measures the *sustained* service rate with
    backpressure and admission shedding live — the serve-mode analog of
    batch throughput. Per-kernel wall clock is attributed by injecting a
    stage-timed vectorized processor into the serve loop; the per-cell
    executor threads update the totals under a lock.
    """
    from ..obs.lockdep import tracked_lock
    from ..serve import ServeConfig, serve
    from ..uplink.vectorized import process_subframe_vectorized

    totals: dict[str, list[int]] = {k: [0, 0] for k in KERNEL_KINDS}
    lock = tracked_lock("bench.serve.stage_totals")

    @contextmanager
    def stage_timer(kernel: str, batch: int):
        begin = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - begin
            with lock:
                totals[kernel][0] += elapsed
                totals[kernel][1] += 1

    config = ServeConfig(
        cells=max(2, scale.threads),
        subframes=min(1_000, max(40, scale.sim_subframes)),
        backend="vectorized",
        pace=False,
        seed=seed,
        keep_results=False,
        processor=lambda subframe: process_subframe_vectorized(
            subframe, stage_timer=stage_timer
        ),
    )
    report = serve(config).report
    return {
        "backend": "serve",
        "cells": config.cells,
        "subframes": report["dispatched"],
        "subframes_per_cell": config.subframes,
        "workers": config.cells,
        "wall_s": report["wall_s"],
        "throughput_sf_per_s": report["throughput_sf_per_s"],
        "users_per_hour": report["users_per_hour"],
        "served_users": report["served_users"],
        "shed_users": report["shed_users"],
        "backpressure_hits": report["backpressure_hits"],
        "terminal_counts": report["terminal_counts"],
        "ledger_ok": report["ledger_ok"],
        "kernel_breakdown": _breakdown_from_totals(totals),
    }


def measure_obs_overhead_pct(scale: BenchScale, seed: int, repeats: int = 3) -> float:
    """Full-profiling slowdown vs. hooks-off on the threaded runtime.

    Measured where profiling can actually perturb the result: on the
    simulator an observer only slows the *host*, never simulated time, so
    the honest intrusiveness number is wall-clock spans on real threads.
    Interleaved best-of-``repeats`` to suppress scheduler noise.
    """
    from ..sched.threaded import ThreadedRuntime

    subframes = _functional_subframes(scale, seed)
    off_times, on_times = [], []
    for _ in range(max(1, repeats)):
        for observers, times in ((None, off_times), ("profiler", on_times)):
            # The "on" configuration carries the full observability stack
            # the production service mode would: profiling spans plus the
            # streaming telemetry/SLO pipeline.
            obs = (
                [Profiler(keep_spans=False), SLOEngine()]
                if observers
                else None
            )
            runtime = ThreadedRuntime(
                num_workers=scale.threads, steal_seed=seed, observers=obs
            )
            start = time.perf_counter()
            runtime.run(subframes)
            times.append(time.perf_counter() - start)
    off_best, on_best = min(off_times), min(on_times)
    if off_best <= 0:
        return 0.0
    return max(0.0, (on_best - off_best) / off_best * 100.0)


def measure_fault_overhead_pct(
    scale: BenchScale, seed: int, repeats: int = 3
) -> float:
    """Zero-fault cost of the resilience layer on the threaded runtime.

    Compares the default runtime against one carrying the full fault
    machinery — an (empty) armed fault plan, per-subframe wall-clock
    deadlines (so every poll checks them), retry budget, and ledger —
    with *no* fault firing. Interleaved best-of-``repeats``; the
    acceptance bound (<3%, ``benchmarks/test_fault_overhead.py``) keeps
    resilience always-on affordable.
    """
    from ..faults.injector import ThreadFaultInjector
    from ..faults.plan import FaultPlan
    from ..faults.watchdog import ResilienceConfig
    from ..sched.threaded import ThreadedRuntime

    subframes = _functional_subframes(scale, seed)
    off_times, on_times = [], []
    for _ in range(max(1, repeats)):
        for armed, times in ((False, off_times), (True, on_times)):
            kwargs = {}
            if armed:
                kwargs = {
                    "faults": ThreadFaultInjector(FaultPlan(seed=seed)),
                    "resilience": ResilienceConfig(
                        max_retries=2, deadline_s=300.0
                    ),
                }
            runtime = ThreadedRuntime(
                num_workers=scale.threads, steal_seed=seed, **kwargs
            )
            start = time.perf_counter()
            runtime.run(subframes)
            times.append(time.perf_counter() - start)
    off_best, on_best = min(off_times), min(on_times)
    if off_best <= 0:
        return 0.0
    return max(0.0, (on_best - off_best) / off_best * 100.0)


def measure_supervision_overhead_pct(
    scale: BenchScale, seed: int, repeats: int = 2
) -> float:
    """Zero-death cost of the worker supervisor on the process pool.

    Compares steady-state submit→drain wall clock (pool startup
    excluded) with and without a :class:`~repro.serve.supervisor.
    WorkerSupervisor` attached, no fault firing and no worker dying —
    the supervisor's hot-path footprint is one heartbeat stamp per
    dispatch, one progress reset per reply, and an empty pending-respawn
    scan per pump. Interleaved best-of-``repeats``; the acceptance bound
    (<2%, ``benchmarks/test_supervision_overhead.py``) is asserted from
    measured unit costs, this end-to-end number is reported for trend
    tracking.
    """
    from ..sched.multiprocess import MultiprocessRuntime

    subframes = _functional_subframes(scale, seed)
    off_times, on_times = [], []
    for _ in range(max(1, repeats)):
        for supervised, times in ((False, off_times), (True, on_times)):
            runtime = MultiprocessRuntime(
                num_workers=scale.threads, respawn=supervised
            )
            runtime.start()
            try:
                start = time.perf_counter()
                for subframe in subframes:
                    runtime.submit(subframe)
                runtime.drain()
                times.append(time.perf_counter() - start)
            finally:
                runtime.close()
    off_best, on_best = min(off_times), min(on_times)
    if off_best <= 0:
        return 0.0
    return max(0.0, (on_best - off_best) / off_best * 100.0)


# ------------------------------------------------------------------ report
def run_bench(
    scale: str | BenchScale = "default",
    seed: int = 0,
    scenarios: tuple[str, ...] | None = None,
    include_overhead: bool = True,
    revision: str | None = None,
) -> dict:
    """Run the scenario matrix; returns the ``repro-bench/1`` report."""
    if isinstance(scale, str):
        try:
            scale = SCALES[scale]
        except KeyError:
            raise ValueError(
                f"unknown scale {scale!r} (choose from {sorted(SCALES)})"
            ) from None
    selected = scenarios or SCENARIOS
    unknown = set(selected) - set(SCENARIOS)
    if unknown:
        raise ValueError(f"unknown scenario(s): {sorted(unknown)}")
    runners: dict[str, Callable[[], dict]] = {
        "serial": lambda: run_serial_scenario(scale, seed),
        "vectorized": lambda: run_vectorized_scenario(scale, seed),
        "threaded": lambda: run_threaded_scenario(scale, seed),
        "multiprocess": lambda: run_multiprocess_scenario(scale, seed),
        "sim-nonap": lambda: run_sim_scenario(scale, seed, "NONAP"),
        "sim-nap-idle": lambda: run_sim_scenario(scale, seed, "NAP+IDLE"),
        "serve": lambda: run_serve_scenario(scale, seed),
    }
    report: dict = {
        "schema": SCHEMA_VERSION,
        "revision": revision or git_revision(),
        "scale": scale.name,
        "seed": seed,
        "scenarios": {
            name: runners[name]() for name in SCENARIOS if name in selected
        },
    }
    threaded = report["scenarios"].get("threaded")
    if threaded is not None and "slo_report" in threaded:
        # The SLO section is run-level output (like the overhead numbers),
        # not a per-scenario metric — lift it to the top of the report.
        report["slo_report"] = threaded.pop("slo_report")
    if include_overhead:
        report["obs_overhead_pct"] = measure_obs_overhead_pct(scale, seed)
        report["fault_overhead_pct"] = measure_fault_overhead_pct(scale, seed)
        report["supervision_overhead_pct"] = measure_supervision_overhead_pct(
            scale, seed
        )
    return report


def write_bench_report(report: dict, path: Any) -> Any:
    # Crash-safe: a SIGKILL mid-write must never leave a truncated report
    # for `repro top --from` or the CI comparator to choke on.
    atomic_write_json(path, report, indent=2, sort_keys=True)
    return path


def validate_bench_report(report: Any) -> list[str]:
    """Structural schema check; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if report.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"schema is {report.get('schema')!r}, expected {SCHEMA_VERSION!r}"
        )
    for key in ("revision", "scale"):
        if not isinstance(report.get(key), str):
            problems.append(f"missing/invalid string field {key!r}")
    if not isinstance(report.get("seed"), int):
        problems.append("missing/invalid int field 'seed'")
    for optional in (
        "obs_overhead_pct",
        "fault_overhead_pct",
        "supervision_overhead_pct",
    ):
        if optional in report and not isinstance(
            report[optional], (int, float)
        ):
            problems.append(f"{optional!r} present but not numeric")
    scenarios = report.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        return problems + ["missing/empty 'scenarios' object"]
    for name, scenario in scenarios.items():
        if name not in SCENARIOS:
            problems.append(f"unknown scenario {name!r}")
            continue
        if not isinstance(scenario, dict):
            problems.append(f"scenario {name!r} is not an object")
            continue
        for key in ("wall_s", "throughput_sf_per_s"):
            if not isinstance(scenario.get(key), (int, float)):
                problems.append(f"{name}: missing numeric field {key!r}")
        breakdown = scenario.get("kernel_breakdown")
        if not isinstance(breakdown, dict) or not breakdown:
            problems.append(f"{name}: missing 'kernel_breakdown'")
        else:
            for kernel, entry in breakdown.items():
                if not isinstance(entry, dict) or not {
                    "count",
                    "total",
                    "share",
                } <= entry.keys():
                    problems.append(
                        f"{name}: kernel {kernel!r} entry lacks "
                        "count/total/share"
                    )
        if scenario.get("backend") in ("vectorized", "multiprocess"):
            if not isinstance(scenario.get("bit_exact_vs_serial"), bool):
                problems.append(
                    f"{name}: missing boolean field 'bit_exact_vs_serial'"
                )
        if scenario.get("backend") == "serve":
            if not isinstance(
                scenario.get("users_per_hour"), (int, float)
            ):
                problems.append(
                    f"{name}: missing numeric field 'users_per_hour'"
                )
            if not isinstance(scenario.get("ledger_ok"), bool):
                problems.append(
                    f"{name}: missing boolean field 'ledger_ok'"
                )
        if scenario.get("backend") == "sim":
            deterministic = scenario.get("deterministic")
            if not isinstance(deterministic, dict):
                problems.append(f"{name}: sim scenario lacks 'deterministic'")
            else:
                for key in (
                    "tasks_executed",
                    "kernel_cycles",
                    "deadline_miss_rate",
                ):
                    if key not in deterministic:
                        problems.append(f"{name}: deterministic lacks {key!r}")
    return problems
