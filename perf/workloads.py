"""The seven benchmark workloads: inputs, timed blocks, correctness checks.

Every workload is driven from outside, through public functions of the
program only. A workload object is used by ``worker.py`` as::

    setup()  -> inputs from the seed, pools, one untimed warm pass
    block()  -> one timed block (repeated until ``--seconds`` is used up)
    check()  -> (attempted, failed, messages), outside the timed sections
    close()  -> release pools; returns messages about anything left behind

Sizes are fixed constants, never scaled by the host. ``quick`` shrinks them
for the test-suite (<= 20 subframes / 200 ticks per workload).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import multiprocessing
import os
import resource
import time
from typing import NamedTuple

from repro.experiments.power_study import run_power_study
from repro.phy.params import Modulation
from repro.power.estimator import calibrate_from_cost_model
from repro.sched.multiprocess import MultiprocessRuntime
from repro.serve import ServeConfig, serve, validate_serve_report
from repro.sim.cost import CostModel
from repro.uplink import (
    RandomizedParameterModel,
    SubframeFactory,
    SubframeInput,
    UserParameters,
    process_subframe,
    process_subframe_serial,
)

__all__ = ["WORKLOADS", "Block", "make_workload", "traffic_for"]

#: Test-only switch: corrupt the serial reference so the checks must fail.
CORRUPT_ENV = "PERF_CORRUPT_REFERENCE"

PAPER_MIX_SUBFRAMES = 120
#: Passes over a closed loop's unique subframes that make one ~1 s block
#: (120, 8 x 12 = 96 and 3 x 21 = 63 calls).
PASSES_PER_BLOCK = {"paper_mix": 1, "shared_shape": 12, "wideband": 21}
SERVE_TICKS = 600
POWER_STUDY_SUBFRAMES = 400
MP_WORKERS = 2
MP_WINDOW = 20
#: Throw-away subframe indices for pool readiness probes (ledger is
#: exactly-once, so they must never collide with a block's indices).
MP_READY_INDEX = 1_000_000

_SHARED_SHAPES = (
    (1, Modulation.QPSK),
    (2, Modulation.QAM16),
    (2, Modulation.QAM64),
    (4, Modulation.QAM64),
)
#: Two 2-layer subframes to one 4-layer: equal time in each shape, and the
#: median latency falls inside the 2-layer mode instead of on the boundary
#: between the two modes (where a 1:1 mix put it, unsteadily).
_WIDE_SHAPES = (
    (2, Modulation.QAM64),
    (4, Modulation.QAM64),
    (2, Modulation.QAM64),
)

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Block(NamedTuple):
    """One timed block: what it completed, what it cost, its latencies.

    Every end-to-end figure is the median over blocks of the block's own
    value, so a burst of host noise spoils one block, not the result.
    ``paced`` marks a block whose rate is set by a clock, not by the CPU.
    """

    subframes: int
    wall_s: float
    cpu_s: float
    p50_ms: float
    p95_ms: float
    samples: int
    paced: bool = False


# ------------------------------------------------------------------ inputs
def paper_mix_traffic(seed: int, quick: bool = False) -> list[SubframeInput]:
    """The paper's randomized mix (Figs. 6/10): one full probability ramp."""
    count = 20 if quick else PAPER_MIX_SUBFRAMES
    model = RandomizedParameterModel(
        total_subframes=count, probability_step=max(1, count // 60), seed=seed
    )
    factory = SubframeFactory(seed=seed)
    return [
        factory.from_pool(model.uplink_parameters(i), i) for i in range(count)
    ]


def shared_shape_traffic(seed: int, quick: bool = False) -> list[SubframeInput]:
    """10 users x 20 PRB sharing one (layers, modulation): one shape group."""
    factory = SubframeFactory(seed=seed)
    subframes = []
    for index in range(4 if quick else 8):
        layers, modulation = _SHARED_SHAPES[index % len(_SHARED_SHAPES)]
        users = [
            UserParameters(
                user_id=u, num_prb=20, layers=layers, modulation=modulation
            )
            for u in range(10)
        ]
        subframes.append(factory.synthesize(users, index))
    return subframes


def wideband_traffic(seed: int, quick: bool = False) -> list[SubframeInput]:
    """One user on the whole 200-PRB carrier: large arrays, one call each."""
    factory = SubframeFactory(seed=seed)
    subframes = []
    for index, (layers, modulation) in enumerate(_WIDE_SHAPES):
        users = [
            UserParameters(
                user_id=0, num_prb=200, layers=layers, modulation=modulation
            )
        ]
        subframes.append(factory.synthesize(users, index))
    return subframes


_TRAFFIC = {
    "paper_mix": paper_mix_traffic,
    "shared_shape": shared_shape_traffic,
    "wideband": wideband_traffic,
}


def traffic_for(workload: str, seed: int, quick: bool = False):
    """Closed-loop traffic of a workload; ``paper_mix`` for the others."""
    return _TRAFFIC.get(workload, paper_mix_traffic)(seed, quick)


def serve_config(seed: int, paced: bool, quick: bool = False, **extra):
    """The serve workloads' config: 2 cells x 200 arrivals/s of small users."""
    return ServeConfig(
        cells=2,
        subframes=200 if quick else SERVE_TICKS,
        delta_s=0.005,
        arrival="poisson",
        rate=2.0,
        mix="mmtc",
        max_users=10,
        backend="vectorized",
        keep_results=False,
        seed=seed,
        pace=paced,
        backpressure="shed" if paced else "block",
        queue_depth=64 if paced else 8,
        **extra,
    )


# ----------------------------------------------------------------- helpers
def self_cpu_s() -> float:
    """User + system CPU of this process (all its threads)."""
    return time.process_time()


def proc_cpu_s(pid: int) -> float:
    """User + system CPU of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def shm_segments() -> set[str]:
    """Names of Python shared-memory segments currently on this host."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    rank = math.ceil(q * len(sorted_values) - 1e-9)
    return sorted_values[max(1, rank) - 1]


def p50_p95(values_ms: list[float]) -> tuple[float, float, int]:
    ordered = sorted(values_ms)
    return percentile(ordered, 0.5), percentile(ordered, 0.95), len(ordered)


def drop_llrs(result):
    """Keep a result for the checks without its soft bits.

    ``equals`` compares payloads and CRC outcomes only; holding every LLR
    array until the checks run would make ``peak_rss_mb`` a measurement of
    the harness (+250 MB on ``paper_mix``), not of the program.
    """
    if result is not None:
        for user_result in result.user_results:
            user_result.llrs = None
    return result


class Workload:
    """Common shape of a workload (see module docstring)."""

    name = ""
    #: How load is offered, for the printed header.
    loop = ""
    #: Share of attempted subframes that may fail before the run is wrong.
    tolerated_failed_share = 0.0

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick
        self.children_peak_rss_kb = 0

    def setup(self) -> None:
        raise NotImplementedError

    def block(self) -> Block:
        raise NotImplementedError

    def check(self) -> tuple[int, int, list[str]]:
        raise NotImplementedError

    def close(self) -> list[str]:
        return []

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (own + self.children_peak_rss_kb) / 1024.0


# ------------------------------------------------------------ closed loops
class ClosedLoop(Workload):
    """One client calling ``process_subframe(sf, backend="vectorized")``."""

    loop = "closed, 1 client"

    def __init__(self, name: str, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.name = name
        self.passes = 1 if quick else PASSES_PER_BLOCK[name]
        self.traffic: list[SubframeInput] = []
        self.last: list = []
        self.calls: list[int] = []
        self.raised = 0
        self.messages: list[str] = []

    def setup(self) -> None:
        self.traffic = traffic_for(self.name, self.seed, self.quick)
        self.last = [None] * len(self.traffic)
        self.calls = [0] * len(self.traffic)
        for subframe in self.traffic:  # warm pass: DMRS banks, permutations
            process_subframe(subframe, backend="vectorized")

    def block(self) -> Block:
        latencies: list[int] = []
        last = self.last
        clock = time.perf_counter_ns
        cpu0 = self_cpu_s()
        t0 = time.perf_counter()
        for _ in range(self.passes):
            for i, subframe in enumerate(self.traffic):
                begin = clock()
                try:
                    result = process_subframe(subframe, backend="vectorized")
                except Exception as exc:  # counted as a failed operation
                    result = None
                    self.raised += 1
                    self.messages.append(f"{self.name}[{i}] raised {exc!r}")
                latencies.append(clock() - begin)
                last[i] = drop_llrs(result)
                self.calls[i] += 1
        wall = time.perf_counter() - t0
        cpu = self_cpu_s() - cpu0
        return Block(
            len(latencies), wall, cpu, *p50_p95([ns / 1e6 for ns in latencies])
        )

    def check(self) -> tuple[int, int, list[str]]:
        failed = self.raised
        for i, subframe in enumerate(self.traffic):
            result = self.last[i]
            if result is None:
                continue  # already counted when it raised
            reference = process_subframe_serial(subframe)
            if i == 0 and os.environ.get(CORRUPT_ENV):
                reference.user_results[0].payload[0] ^= 1
            if not result.equals(reference):
                problem = "differs from the serial reference"
            else:
                problem = self._decode_problem(subframe, result)
            if problem:
                failed += self.calls[i]
                self.messages.append(f"{self.name}[{i}] {problem}")
        return sum(self.calls), failed, self.messages

    @staticmethod
    def _decode_problem(subframe: SubframeInput, result) -> str | None:
        """Synthesized QPSK/16QAM users must decode to what was sent.

        64QAM is left out: uncoded at the factory's 35 dB over a fading
        channel, 2 x 64QAM decodes 8-10 users of 10 and 4 x 64QAM 0-2.
        """
        for user, decoded in zip(subframe.users, result.user_results):
            expected = subframe.expected_payloads.get(user.user_id)
            if expected is None or user.modulation is Modulation.QAM64:
                continue
            if not decoded.crc_ok or not (decoded.payload == expected).all():
                return f"user {user.user_id} did not decode to its payload"
        return None


# --------------------------------------------------------------- mp_shards
def numbered(inputs: list[SubframeInput], base: int) -> list[SubframeInput]:
    """The same inputs under consecutive fresh subframe indices.

    The runtimes' ledger is exactly-once per index; the grids are shared.
    """
    return [
        dataclasses.replace(subframe, subframe_index=base + position)
        for position, subframe in enumerate(inputs)
    ]


def start_pool(traffic: list[SubframeInput], observers=None):
    """Start a 2-worker pool and wait until *every* worker returned a result.

    ``start()`` returns while the children are still importing NumPy, so
    "ready" is one completed task per worker. Returns (runtime, ready_s).
    """
    probe = traffic[0]
    begin = time.perf_counter()
    runtime = MultiprocessRuntime(num_workers=MP_WORKERS, observers=observers)
    runtime.start()
    try:
        for attempt in range(50):
            if all(count > 0 for count in runtime.stats.tasks_executed):
                break
            # One throw-away subframe per worker, submitted together: each
            # idle worker takes one task, even if a subframe is one group.
            first = MP_READY_INDEX + attempt * MP_WORKERS
            for subframe in numbered([probe] * MP_WORKERS, first):
                runtime.submit(subframe)
            runtime.drain()
            runtime.collect_results()
        else:
            raise RuntimeError("a pool worker never completed a task")
    except BaseException:
        runtime.close()
        raise
    return runtime, time.perf_counter() - begin


def close_pool(runtime, shm_before: set[str]) -> tuple[list[str], int]:
    """Close the pool; report leaked children/segments and workers' peak RSS."""
    children = multiprocessing.active_children()
    peak_kb = 0
    for child in children:
        try:
            peak_kb += proc_peak_rss_kb(child.pid)
        except OSError:
            pass
    runtime.close()
    messages = []
    for child in children:
        child.join(timeout=5.0)
        if child.is_alive():
            messages.append(f"child process {child.pid} outlived the pool")
    leaked = shm_segments() - shm_before
    if leaked:
        messages.append(f"shared-memory segments left behind: {sorted(leaked)}")
    return messages, peak_kb


class MpShards(Workload):
    """``paper_mix`` inputs through the 2-worker shared-memory pool.

    A caller hands over a window of 20 subframes (``submit`` x 20 ->
    ``drain`` -> ``collect_results``) and waits; a block is one pass over the
    inputs, six windows. No per-subframe latency exists behind
    ``submit``/``drain``, so the latency sample is a window's wall time per
    subframe handed over.
    """

    name = "mp_shards"
    loop = f"closed, window = {MP_WINDOW} subframes"

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.runtime = None
        self.shm_before: set[str] = set()
        self.blocks_run = 0
        self.attempted = 0
        self.last_inputs: list[SubframeInput] = []
        self.last_results: list = []
        self.messages: list[str] = []

    def setup(self) -> None:
        self.traffic = paper_mix_traffic(self.seed, self.quick)
        self.shm_before = shm_segments()
        self.runtime, _ = start_pool(self.traffic)
        # One discarded block. Each worker fills its own caches and the next
        # block shards groups differently, so the first timed block can still
        # run cold; the median over blocks is what absorbs it.
        self.block()
        self.attempted = 0

    def _pool_cpu_s(self) -> float:
        total = self_cpu_s()
        for child in multiprocessing.active_children():
            try:
                total += proc_cpu_s(child.pid)
            except OSError:
                pass
        return total

    def block(self) -> Block:
        self.blocks_run += 1
        inputs = numbered(self.traffic, self.blocks_run * 10_000)
        runtime = self.runtime
        results = []
        window_ms = []
        cpu0 = self._pool_cpu_s()
        t0 = time.perf_counter()
        for lo in range(0, len(inputs), MP_WINDOW):
            window = inputs[lo : lo + MP_WINDOW]
            begin = time.perf_counter()
            for subframe in window:
                runtime.submit(subframe)
            runtime.drain()
            results.extend(drop_llrs(r) for r in runtime.collect_results())
            window_ms.append((time.perf_counter() - begin) * 1e3 / len(window))
        wall = time.perf_counter() - t0
        cpu = self._pool_cpu_s() - cpu0
        self.last_inputs, self.last_results = inputs, results
        self.attempted += len(inputs)
        return Block(len(inputs), wall, cpu, *p50_p95(window_ms))

    def check(self) -> tuple[int, int, list[str]]:
        failed = 0
        by_index = {r.subframe_index: r for r in self.last_results}
        for subframe in self.last_inputs:
            result = by_index.get(subframe.subframe_index)
            reference = process_subframe(subframe, backend="vectorized")
            if (
                result is None
                or result.aborted_user_ids
                or not result.equals(reference)
            ):
                failed += 1
                self.messages.append(
                    f"mp_shards subframe {subframe.subframe_index} differs "
                    "from the in-process vectorized result"
                )
        stats = self.runtime.stats
        for counter in ("retries", "worker_deaths", "slab_overflows",
                        "aborted_users"):
            if getattr(stats, counter):
                failed = max(failed, 1)
                self.messages.append(
                    f"mp_shards stats.{counter} = {getattr(stats, counter)}"
                )
        return self.attempted, failed, self.messages

    def close(self) -> list[str]:
        if self.runtime is None:
            return []
        runtime, self.runtime = self.runtime, None
        messages, self.children_peak_rss_kb = close_pool(
            runtime, self.shm_before
        )
        return messages


# ------------------------------------------------------------------- serve
class Serve(Workload):
    """``repro.serve.serve`` paced (open loop) or flooded (closed loop)."""

    #: Shedding a subframe is the service's designed answer to a stall.
    tolerated_failed_share = 0.002

    def __init__(self, seed: int, quick: bool, paced: bool) -> None:
        super().__init__(seed, quick)
        self.paced = paced
        self.name = "serve_paced" if paced else "serve_flood"
        self.loop = (
            "open, 2 cells x 200 arrivals/s"
            if paced
            else "closed, <= queue_depth in flight per cell"
        )
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def setup(self) -> None:
        # Warm pass: the same arrivals unpaced, so every shape a timed run
        # will see has its DMRS bank and permutation built.
        serve(serve_config(self.seed, paced=False, quick=self.quick))

    def block(self) -> Block:
        config = serve_config(self.seed, self.paced, self.quick)
        cpu0 = self_cpu_s()
        t0 = time.perf_counter()
        result = serve(config)
        wall = time.perf_counter() - t0
        cpu = self_cpu_s() - cpu0
        report = result.report
        counts = report["terminal_counts"]
        dispatched = report["dispatched"]
        problems = list(validate_serve_report(report))
        if not result.ok:
            problems.append(f"ServeResult.ok is False: {result.errors}")
        if dispatched != sum(counts.values()):
            problems.append(
                f"dispatched {dispatched} != terminal counts {counts}"
            )
        self.attempted += dispatched
        self.failed += dispatched if problems else (
            counts["shed"] + counts["aborted"]
        )
        self.messages.extend(f"{self.name}: {p}" for p in problems)
        # The program's own sketch: dispatch -> terminal, +-1 %, in ns.
        latency = result.engine.telemetry.sketches["subframe_latency"]
        return Block(
            dispatched - counts["shed"] - counts["aborted"],
            wall,
            cpu,
            latency.quantile(0.5) / 1e6,
            latency.quantile(0.95) / 1e6,
            latency.count,
            paced=self.paced,
        )

    def check(self) -> tuple[int, int, list[str]]:
        return self.attempted, self.failed, self.messages


# ------------------------------------------------------------- power_study
TABLE2_ORDER = ("PowerGating", "NAP+IDLE", "NAP", "IDLE", "NONAP")


def table2_problem(watts: dict[str, float]) -> str | None:
    """Table II ordering: PowerGating < NAP+IDLE < NAP < IDLE < NONAP."""
    values = [watts[name] for name in TABLE2_ORDER]
    if any(a >= b for a, b in zip(values, values[1:])):
        return f"Table II ordering broken: {watts}"
    return None


class PowerStudy(Workload):
    """All four policies on the 62-worker simulator plus Eq. 6-9 gating."""

    name = "power_study"
    loop = "batch"

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.num_subframes = 40 if quick else POWER_STUDY_SUBFRAMES
        self.watts: list[dict[str, float]] = []

    def _study(self, num_subframes: int):
        return run_power_study(
            num_subframes=num_subframes,
            seed=self.seed,
            cost=self.cost,
            estimator=self.estimator,
        )

    def setup(self) -> None:
        self.cost = CostModel()
        self.estimator = calibrate_from_cost_model(self.cost)
        self._study(20 if self.quick else 100)  # warm pass

    def block(self) -> Block:
        cpu0 = self_cpu_s()
        t0 = time.perf_counter()
        study = self._study(self.num_subframes)
        wall = time.perf_counter() - t0
        cpu = self_cpu_s() - cpu0
        policy_subframes = len(study.runs) * self.num_subframes
        self.watts.append(
            {name: study.mean_power(name) for name in TABLE2_ORDER}
        )
        # Latency: wall per simulated policy-subframe, one sample per run.
        per_subframe_ms = wall * 1e3 / policy_subframes
        return Block(
            policy_subframes, wall, cpu, per_subframe_ms, per_subframe_ms, 1
        )

    def check(self) -> tuple[int, int, list[str]]:
        attempted = len(self.watts) * 4 * self.num_subframes
        messages = []
        problem = table2_problem(self.watts[0])
        if problem:
            messages.append(problem)
        if any(run != self.watts[0] for run in self.watts[1:]):
            messages.append(f"mean watts differ between runs: {self.watts}")
        return attempted, attempted if messages else 0, messages


WORKLOADS = {
    **{name: functools.partial(ClosedLoop, name) for name in PASSES_PER_BLOCK},
    "mp_shards": MpShards,
    "serve_paced": lambda seed, quick: Serve(seed, quick, paced=True),
    "serve_flood": lambda seed, quick: Serve(seed, quick, paced=False),
    "power_study": PowerStudy,
}


def make_workload(name: str, seed: int, quick: bool = False) -> Workload:
    return WORKLOADS[name](seed, quick)
