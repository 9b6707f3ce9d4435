"""The traced run: per-layer metrics, layer = module name of the program.

Separate from the end-to-end run (which measures with tracing off). Spans
are recorded by the benchmark around each public call and through the hooks
the modules already expose (``stage_timer``, ``ServeConfig.processor``,
``ServeConfig.trace_path``, runtime ``observers``); nothing inside the
program is instrumented. Every probe runs on every traced run, on the
traffic of the named workload where the layer takes subframes, so one run
prints every per-layer metric. Probe sizes are fixed constants so that
counts repeat exactly for a given (workload, seed).
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np

from repro.obs.profiling import Profiler
from repro.obs.slo import SLOEngine
from repro.phy import (
    Modulation,
    PassThroughTurbo,
    batched_chest,
    batched_combine_symbols,
    batched_combiner_weights,
    batched_soft_demap,
)
from repro.phy.crc import crc_check
from repro.phy.interleaver import deinterleave_rows
from repro.phy.scrambling import descramble_llrs
from repro.power.estimator import calibrate_from_cost_model
from repro.power.gating import PowerGatingModel
from repro.power.governor import POLICY_NAMES, make_policy
from repro.power.model import PowerModel
from repro.sched.threaded import ThreadedRuntime
from repro.serve import serve
from repro.sim.cost import CostModel
from repro.sim.machine import MachineSimulator, SimConfig
from repro.uplink import (
    KERNEL_KINDS,
    RandomizedParameterModel,
    process_subframe,
    process_subframe_serial,
    process_subframe_vectorized,
)

from hostspeed import NOMINAL_CALL_S, HostSpeed
from spans import SpanLog
from workloads import (
    MP_WORKERS,
    PASSES_PER_BLOCK,
    POWER_STUDY_SUBFRAMES,
    close_pool,
    numbered,
    percentile,
    serve_config,
    shm_segments,
    start_pool,
    traffic_for,
)

__all__ = ["trace_layers"]

SERIAL_SAMPLE = 30
MP_BLOCK_SUBFRAMES = 60
THREADED_SAMPLE = 10
OBS_PAIRS = 3
SERVE_PROBE_TICKS = 300
PHY_CALLS = 200
#: A kernel-shape pair stops early once it has used this much time (and
#: has at least 3 samples): ``descramble_llrs`` takes 0.6 s a call at ``wide``.
PHY_BUDGET_S = 0.12


def sample(items: list, count: int) -> list:
    """``count`` items spread evenly over the list (all of a short list)."""
    step = max(1, len(items) // count)
    return items[::step][:count]


def metric(value: float, unit: str, base: str | None = None) -> dict:
    """One reported figure; a ratio carries the base it was taken against."""
    entry = {"value": float(value), "unit": unit}
    if base:
        entry["base"] = base
    return entry


# --------------------------------------------------------------------- phy
def _phy_cases(seed: int):
    """(kernel, shape, call, inputs) at the two pinned shapes.

    ``grp`` is a typical shape group (4 users x 240 sc x 2 layers x 16QAM),
    ``wide`` one wideband user (1 x 2400 sc x 4 layers x 64QAM); both with
    the cell's 4 receive antennas, shaped as ``process_group`` passes them.
    """
    rng = np.random.default_rng((seed, 7))

    def cplx(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 2

    turbo = PassThroughTurbo()
    shapes = {
        "grp": (4, 240, 2, Modulation.QAM16),
        "wide": (1, 2400, 4, Modulation.QAM64),
    }
    for shape, (users, sc, layers, modulation) in shapes.items():
        refs = cplx(users, 2, 4, sc)
        channel, noise = batched_chest(refs, layers)
        noise_variance = noise.reshape(users, 2, -1).mean(axis=-1)
        weights, _ = batched_combiner_weights(channel, noise_variance)
        data = cplx(users, 4, 6, sc)
        stream = cplx(users, 12 * sc * layers)
        stream_noise = np.full(stream.shape, 0.01)
        llrs = rng.standard_normal(stream.shape[1] * modulation.bits_per_symbol)
        bits = (llrs < 0).astype(np.int64)
        slot_weights = np.ascontiguousarray(weights[:, 0])
        yield "batched_chest", shape, batched_chest, (refs, layers)
        yield (
            "batched_combiner_weights", shape, batched_combiner_weights,
            (channel, noise_variance),
        )
        yield (
            "batched_combine_symbols", shape, batched_combine_symbols,
            (data, slot_weights),
        )
        yield "deinterleave_rows", shape, deinterleave_rows, (stream,)
        yield (
            "batched_soft_demap", shape, batched_soft_demap,
            (stream, modulation, stream_noise),
        )
        yield "descramble_llrs", shape, descramble_llrs, (llrs, 12345)
        yield "turbo_passthrough", shape, turbo.decode, (llrs, llrs.size)
        yield "crc_check", shape, crc_check, (bits,)


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def probe_phy(seed: int, quick: bool, log: SpanLog) -> dict:
    """Median call time and computed bytes in + out of each public kernel."""
    out = {}
    clock = time.perf_counter_ns
    for kernel, shape, call, inputs in _phy_cases(seed):
        result = call(*inputs)  # warm
        samples = []
        with log.span(f"phy.{kernel}.{shape}"):
            budget_end = time.perf_counter() + PHY_BUDGET_S
            while len(samples) < (5 if quick else PHY_CALLS):
                begin = clock()
                call(*inputs)
                samples.append(clock() - begin)
                if len(samples) >= 3 and time.perf_counter() > budget_end:
                    break
        out[f"phy.{kernel}.{shape}_us"] = metric(
            statistics.median(samples) / 1e3, "us"
        )
        out[f"phy.{kernel}.{shape}_bytes"] = metric(
            _nbytes(inputs) + _nbytes(result), "B"
        )
    return out


# ------------------------------------------------------------------ uplink
def probe_uplink(workload: str, traffic, quick: bool, log: SpanLog):
    """Stage budget of the vectorized call on this workload's traffic.

    Untraced and traced passes alternate; the traced call is one root span
    with the four ``stage_timer`` stages as children, so its self time is
    grouping, ``np.stack`` and result assembly. Returns (metrics, plain
    subframes/s, budget problem or None).
    """
    # Traced/untraced pass pairs: one block's worth of calls a side.
    pairs = 1 if quick else PASSES_PER_BLOCK.get(workload, 1)
    for subframe in traffic:  # warm
        process_subframe(subframe, backend="vectorized")
    first = len(log.spans)
    plain_ns = 0
    users = crc_ok = 0
    for pair in range(pairs):
        begin = time.perf_counter_ns()
        for subframe in traffic:
            result = process_subframe(subframe, backend="vectorized")
            if pair == 0:
                users += len(result.user_results)
                crc_ok += sum(1 for u in result.user_results if u.crc_ok)
        plain_ns += time.perf_counter_ns() - begin
        for subframe in traffic:
            with log.span("uplink.process_subframe", subframe.subframe_index):
                process_subframe_vectorized(
                    subframe, stage_timer=log.stage_timer
                )
    calls = pairs * len(traffic)
    by_name = log.totals_ns(first)
    root = by_name["uplink.process_subframe"]
    out = {
        f"uplink.{stage}_ms": metric(by_name[stage][1] / calls / 1e6, "ms")
        for stage in KERNEL_KINDS
    }
    out["uplink.self_ms"] = metric(root[2] / calls / 1e6, "ms")
    out["uplink.call_ms"] = metric(root[1] / calls / 1e6, "ms")
    groups = by_name["chest"][0] / calls
    out["uplink.groups_per_subframe"] = metric(groups, "count")
    out["uplink.users_per_group"] = metric(
        users / len(traffic) / groups, "count"
    )
    out["uplink.crc_ok_share"] = metric(
        crc_ok / users, "ratio", f"{crc_ok} of {users} users"
    )
    plain_rate = calls / (plain_ns / 1e9)
    traced_rate = calls / (root[1] / 1e9)
    out["perf.trace_overhead_share"] = metric(
        1.0 - traced_rate / plain_rate, "ratio",
        f"traced {traced_rate:.4g} vs untraced {plain_rate:.4g} subframes/s",
    )
    serial = sample(traffic, 4 if quick else SERIAL_SAMPLE)
    with log.span("uplink.serial_reference"):
        begin = time.perf_counter()
        for subframe in serial:
            process_subframe_serial(subframe)
        serial_s = time.perf_counter() - begin
    out["uplink.serial_subframes_per_s"] = metric(len(serial) / serial_s, "1/s")
    parts = sum(out[f"uplink.{k}_ms"]["value"] for k in (*KERNEL_KINDS, "self"))
    problem = budget_problem(
        "uplink stages + self", parts, out["uplink.call_ms"]["value"], 0.02
    )
    return out, plain_rate, problem


def budget_problem(what: str, parts: float, whole: float, tolerance: float):
    """A layer budget must add up to its end-to-end figure."""
    if abs(parts - whole) > tolerance * whole:
        return (
            f"{what} sum to {parts:.6g}, not within {tolerance:.0%} of "
            f"{whole:.6g}"
        )
    return None


# ------------------------------------------------------------------- sched
def probe_multiprocess(traffic, direct_rate: float, quick: bool, log: SpanLog):
    """Transport cost of the 2-worker pool on this workload's traffic."""
    want = 8 if quick else MP_BLOCK_SUBFRAMES
    inputs = (traffic * (-(-want // len(traffic))))[:want]
    profiler = Profiler(keep_spans=False)
    shm_before = shm_segments()
    with log.span("sched.multiprocess.ready"):
        runtime, ready_s = start_pool(traffic, observers=[profiler])
    try:
        for subframe in numbered(inputs, 10_000):  # warm block
            runtime.submit(subframe)
        runtime.drain()
        runtime.collect_results()
        kernel_before = _kernel_ns(profiler)
        tasks_before = list(runtime.stats.tasks_executed)
        block = numbered(inputs, 20_000)
        with log.span("sched.multiprocess.block"):
            begin = time.perf_counter()
            with log.span("sched.multiprocess.submit"):
                for subframe in block:
                    runtime.submit(subframe)
            submitted = time.perf_counter()
            with log.span("sched.multiprocess.drain"):
                runtime.drain()
            drained = time.perf_counter()
            results = runtime.collect_results()
            wall = time.perf_counter() - begin
        kernel_s = (_kernel_ns(profiler) - kernel_before) / 1e9
        stats = runtime.stats
        tasks = [
            after - before
            for after, before in zip(stats.tasks_executed, tasks_before)
        ]
        counters = {
            "retries": stats.retries,
            "slab_overflows": stats.slab_overflows,
            "worker_deaths": stats.worker_deaths,
        }
    finally:
        leftovers, _ = close_pool(runtime, shm_before)
    rate = len(results) / wall
    prefix = "sched.multiprocess."
    out = {
        prefix + "ready_s": metric(ready_s, "s"),
        prefix + "submit_us": metric(
            (submitted - begin) * 1e6 / len(block), "us"
        ),
        prefix + "drain_wait_s": metric(drained - submitted, "s"),
        prefix + "worker_kernel_s": metric(kernel_s, "s"),
        prefix + "overhead_ms": metric(
            (MP_WORKERS * wall - kernel_s) * 1e3 / len(block), "ms"
        ),
        prefix + "subframes_per_s": metric(rate, "1/s"),
        prefix + "speedup_vs_vectorized": metric(
            rate / direct_rate, "ratio",
            f"over {direct_rate:.4g} subframes/s in-process, same inputs",
        ),
        prefix + "worker_skew": metric(
            max(tasks) / max(1, min(tasks)), "ratio",
            f"tasks per worker {tasks}",
        ),
    }
    for name, value in counters.items():
        out[prefix + name] = metric(value, "count")
    return out, leftovers


def _kernel_ns(profiler: Profiler) -> int:
    return sum(
        row["total"] for row in profiler.kernel_breakdown("tasks").values()
    )


def probe_threaded(traffic, seed: int, quick: bool, log: SpanLog) -> dict:
    """The threaded runtime with and without observers, interleaved.

    The observer-free runs double as the threaded backend's own rate.
    """
    inputs = sample(traffic, 4 if quick else THREADED_SAMPLE)
    off_s, on_s, steals = [], [], 0
    for _ in range(1 if quick else OBS_PAIRS):
        for observed, walls in ((False, off_s), (True, on_s)):
            observers = (
                [Profiler(keep_spans=False), SLOEngine()] if observed else None
            )
            runtime = ThreadedRuntime(
                num_workers=2, steal_seed=seed, observers=observers
            )
            name = "sched.threaded.run" + (".observed" if observed else "")
            with log.span(name):
                begin = time.perf_counter()
                runtime.run(inputs)
                walls.append(time.perf_counter() - begin)
            if not observed:
                steals = runtime.stats.total_steals
    overhead = statistics.median(
        on / off - 1.0 for on, off in zip(on_s, off_s)
    )
    return {
        "sched.threaded.subframes_per_s": metric(
            len(inputs) / statistics.median(off_s), "1/s"
        ),
        "sched.threaded.steals": metric(steals, "count"),
        "obs.observer_overhead_share": metric(
            overhead, "ratio",
            f"median of {len(off_s)} interleaved pairs; unobserved run "
            f"{statistics.median(off_s):.4g} s",
        ),
    }


# ------------------------------------------------------------------- serve
class _Stamper:
    """``ServeConfig.processor`` equal to the default, stamping each call."""

    def __init__(self) -> None:
        self.stamps: dict[int, tuple[int, int]] = {}
        self.subframes: list = []

    def __call__(self, subframe):
        begin = time.monotonic_ns()
        result = process_subframe(subframe, backend="vectorized")
        self.stamps[subframe.subframe_index] = (begin, time.monotonic_ns())
        self.subframes.append(subframe)
        return result


def _probe_config(seed: int, paced: bool, quick: bool, **extra):
    """The serve workloads' config at the probe's shorter run length."""
    config = serve_config(seed, paced, quick, **extra)
    config.subframes = min(config.subframes, SERVE_PROBE_TICKS)
    return config


def _traced_serve(seed: int, paced: bool, quick: bool, path: str):
    stamper = _Stamper()
    begin = time.perf_counter()
    result = serve(
        _probe_config(seed, paced, quick, trace_path=path, processor=stamper)
    )
    return result, stamper, time.perf_counter() - begin


def _serve_split(path: str, stamps: dict, log: SpanLog) -> dict[str, list[float]]:
    """Per-subframe split of due -> terminal, in ms, from the JSONL trace.

    due -> arrival (generator lag) -> dispatch (admission) -> compute begin
    (queue wait) -> compute end -> terminal (marshal). The stamps share the
    program's clock (``time.monotonic_ns``), so the parts telescope.
    """
    arrival: dict[int, tuple[int, int]] = {}
    dispatch: dict[int, int] = {}
    terminal: dict[int, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            event = json.loads(line)
            kind = event["kind"]
            if kind == "arrival":
                arrival[event["subframe"]] = (event["t"], event["lag_ns"])
            elif kind == "dispatch":
                dispatch[event["subframe"]] = event["t"]
            elif kind == "subframe-terminal":
                terminal[event["subframe"]] = event["t"]
    names = ("lag", "admission", "queue_wait", "compute", "marshal")
    split: dict[str, list[float]] = {name: [] for name in names}
    split["due_to_terminal"] = []
    split["dispatch_to_terminal"] = []
    for gid, (begin, end) in sorted(stamps.items()):
        arrived, lag = arrival[gid]
        edges = (arrived - lag, arrived, dispatch[gid], begin, end, terminal[gid])
        root = log.add("serve.subframe", edges[0], edges[-1], subframe=gid)
        for name, lo, hi in zip(names, edges, edges[1:]):
            split[name].append((hi - lo) / 1e6)
            log.add(f"serve.{name}", lo, hi, parent=root, subframe=gid)
        split["due_to_terminal"].append((edges[-1] - edges[0]) / 1e6)
        split["dispatch_to_terminal"].append((edges[-1] - edges[2]) / 1e6)
    return {name: sorted(values) for name, values in split.items()}


def probe_serve(workload: str, seed: int, quick: bool, out_dir: str, log: SpanLog):
    """The serve layer's latency split and its cost over the direct call."""
    path = os.path.join(out_dir, f"serve-{workload}.jsonl")
    begin = time.perf_counter()
    untraced = serve(_probe_config(seed, False, quick))
    untraced_rate = untraced.report["dispatched"] / (time.perf_counter() - begin)
    flood, stamper, flood_wall = _traced_serve(seed, False, quick, path)
    traced_rate = flood.report["dispatched"] / flood_wall
    direct = sorted(stamper.subframes, key=lambda sf: sf.subframe_index)
    with log.span("serve.direct_reference"):
        begin = time.perf_counter()
        for subframe in direct:
            process_subframe(subframe, backend="vectorized")
        direct_rate = len(direct) / (time.perf_counter() - begin)
    result = flood
    if workload != "serve_flood":  # the split of the paced, open-loop run
        result, stamper, _ = _traced_serve(seed, True, quick, path)
    split = _serve_split(path, stamper.stamps, log)
    os.remove(path)
    report = result.report

    def mean(name):
        return statistics.fmean(split[name])

    def pct(name, q):
        return percentile(split[name], q)

    sketch_p50 = result.engine.telemetry.sketches["subframe_latency"].quantile(0.5)
    trace_p50 = pct("dispatch_to_terminal", 0.5)
    out = {
        "serve.admission_us_p50": metric(pct("admission", 0.5) * 1e3, "us"),
        "serve.queue_wait_ms_p50": metric(pct("queue_wait", 0.5), "ms"),
        "serve.queue_wait_ms_p95": metric(pct("queue_wait", 0.95), "ms"),
        "serve.compute_ms_p50": metric(pct("compute", 0.5), "ms"),
        "serve.compute_ms_p95": metric(pct("compute", 0.95), "ms"),
        "serve.marshal_ms_p50": metric(pct("marshal", 0.5), "ms"),
        "serve.due_to_terminal_ms_p50": metric(pct("due_to_terminal", 0.5), "ms"),
        "serve.due_to_terminal_ms_p95": metric(pct("due_to_terminal", 0.95), "ms"),
        "serve.arrival_lag_ms_p50": metric(pct("lag", 0.5), "ms"),
        "serve.arrival_lag_ms_p95": metric(pct("lag", 0.95), "ms"),
        "serve.arrival_lag_ms_max": metric(split["lag"][-1], "ms"),
        "serve.lag_ms_mean": metric(mean("lag"), "ms"),
        "serve.admission_ms_mean": metric(mean("admission"), "ms"),
        "serve.queue_wait_ms_mean": metric(mean("queue_wait"), "ms"),
        "serve.compute_ms_mean": metric(mean("compute"), "ms"),
        "serve.marshal_ms_mean": metric(mean("marshal"), "ms"),
        "serve.due_to_terminal_ms_mean": metric(mean("due_to_terminal"), "ms"),
        "serve.max_queue_depth": metric(
            max(cell["max_queue_depth"] for cell in report["per_cell"]), "count"
        ),
        "serve.offered_users": metric(report["offered_users"], "count"),
        "serve.shed_users": metric(report["shed_users"], "count"),
        "serve.backpressure_hits": metric(report["backpressure_hits"], "count"),
        "serve.flood_vs_direct": metric(
            untraced_rate / direct_rate, "ratio",
            f"over {direct_rate:.4g} subframes/s calling the same "
            f"{len(direct)} subframes directly",
        ),
        "serve.flood_subframes_per_s": metric(untraced_rate, "1/s"),
        "serve.trace_overhead_share": metric(
            1.0 - traced_rate / untraced_rate, "ratio",
            f"traced {traced_rate:.4g} vs untraced {untraced_rate:.4g} "
            "subframes/s, flood",
        ),
        "serve.sketch_vs_trace_p50_err": metric(
            abs(sketch_p50 / 1e6 - trace_p50) / trace_p50, "ratio",
            f"sketch {sketch_p50 / 1e6:.4g} ms vs trace {trace_p50:.4g} ms",
        ),
    }
    parts = sum(
        out[f"serve.{name}_ms_mean"]["value"]
        for name in ("lag", "admission", "queue_wait", "compute", "marshal")
    )
    problem = budget_problem(
        "serve split means", parts,
        out["serve.due_to_terminal_ms_mean"]["value"], 0.05,
    )
    return out, problem


# ------------------------------------------------------------- sim / power
def probe_power_study(seed: int, quick: bool, log: SpanLog):
    """The power study re-run step by step through public calls."""
    n = 40 if quick else POWER_STUDY_SUBFRAMES
    first = len(log.spans)
    results = {}
    watts = {}
    with log.span("power_study"):
        with log.span("power.calibrate"):
            cost = CostModel()
            estimator = calibrate_from_cost_model(cost)
        model = RandomizedParameterModel(total_subframes=n, seed=seed)
        power_model = PowerModel()
        for name in POLICY_NAMES:
            policy = make_policy(name, cost.machine.num_workers, estimator)
            simulator = MachineSimulator(
                cost,
                policy=policy,
                config=SimConfig(window_s=0.1, drain_margin_s=0.0),
            )
            with log.span(f"sim.run.{name}"):
                results[name] = simulator.run(model, num_subframes=n)
            with log.span("power.model_evaluate"):
                power = power_model.evaluate(
                    results[name].trace, cost.machine.clock_hz
                )
            watts[name] = power.mean_total()
        with log.span("power.gating"):
            gating = PowerGatingModel()
            active = np.array(policy.active_cores_history, dtype=np.int64)
            gating.evaluate(active)
            gated = gating.apply_to_power(
                power.total_w, 0.1, active, cost.machine.subframe_period_s
            )
        watts["PowerGating"] = float(gated.mean())
    by_name = log.totals_ns(first)
    run_s = {name: by_name[f"sim.run.{name}"][1] / 1e9 for name in POLICY_NAMES}
    tasks = sum(r.tasks_executed for r in results.values())
    period = cost.machine.subframe_period_s
    missed = sum(int((r.subframe_latency_s > period).sum()) for r in results.values())
    out = {}
    for name in (*POLICY_NAMES, "PowerGating"):
        key = name.replace("+", "_")
        if name in run_s:
            out[f"sim.run_s.{key}"] = metric(run_s[name], "s")
            out[f"sim.steals.{key}"] = metric(results[name].steals, "count")
        out[f"power.mean_total_w.{key}"] = metric(watts[name], "W")
    out["sim.tasks_executed"] = metric(tasks, "count")
    out["sim.tasks_per_s"] = metric(tasks / sum(run_s.values()), "1/s")
    out["sim.mean_activity"] = metric(
        results["NONAP"].mean_activity(), "ratio", "NONAP run, Eq. 2"
    )
    out["sim.deadline_miss_share"] = metric(
        missed / (len(results) * n), "ratio",
        f"{missed} of {len(results) * n} policy-subframes later than DELTA",
    )
    out["power.calibrate_s"] = metric(by_name["power.calibrate"][1] / 1e9, "s")
    out["power.model_evaluate_s"] = metric(
        by_name["power.model_evaluate"][1] / 1e9, "s"
    )
    out["power.gating_s"] = metric(by_name["power.gating"][1] / 1e9, "s")
    out["power_study.wall_s"] = metric(by_name["power_study"][1] / 1e9, "s")
    parts = sum(run_s.values()) + sum(
        out[f"power.{k}_s"]["value"]
        for k in ("calibrate", "model_evaluate", "gating")
    )
    problem = budget_problem(
        "sim.run_s.* + power.*_s", parts, out["power_study.wall_s"]["value"], 0.03
    )
    return out, problem


# ------------------------------------------------------------------ driver
def trace_layers(workload: str, seed: int, quick: bool, out_dir: str) -> dict:
    """Run every layer probe; returns the worker's report for ``--trace 1``."""
    os.makedirs(out_dir, exist_ok=True)
    log = SpanLog()
    host = HostSpeed()
    speeds = [host.sample()]
    traffic = traffic_for(workload, seed, quick)
    metrics = probe_phy(seed, quick, log)
    speeds.append(host.sample())
    uplink, direct_rate, uplink_problem = probe_uplink(
        workload, traffic, quick, log
    )
    metrics.update(uplink)
    speeds.append(host.sample())
    pool, leftovers = probe_multiprocess(traffic, direct_rate, quick, log)
    metrics.update(pool)
    metrics.update(probe_threaded(traffic, seed, quick, log))
    speeds.append(host.sample())
    served, serve_problem = probe_serve(workload, seed, quick, out_dir, log)
    metrics.update(served)
    speeds.append(host.sample())
    study, study_problem = probe_power_study(seed, quick, log)
    metrics.update(study)
    speeds.append(host.sample())
    # Layer figures are printed as measured; this says how fast the host
    # was while they were (1.0 = the speed end-to-end figures are stated at).
    metrics["perf.host_speed"] = metric(
        statistics.median(speeds), "ratio",
        f"{len(speeds)} slices against {NOMINAL_CALL_S * 1e3:g} ms a call",
    )
    log.write_chrome_trace(os.path.join(out_dir, f"trace-{workload}.json"))
    problems = [
        p for p in (uplink_problem, serve_problem, study_problem) if p
    ] + leftovers
    checks = 4  # three layer budgets + nothing outlives the pool
    return {
        "attempted": checks,
        "failed": min(checks, len(problems)),
        "messages": problems,
        "metrics": metrics,
        "spans": len(log.spans),
    }
