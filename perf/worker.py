"""One workload in one fresh process: set up, measure, check, report.

``run.py`` starts this file as a subprocess (so ``setup_s`` and
``peak_rss_mb`` are per workload) and reads the JSON object printed as the
last line of standard output. Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def host_fingerprint() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_1m": os.getloadavg()[0],
    }


def measure(args, started: float) -> dict:
    """End-to-end metrics of one workload, tracing off.

    Each figure is the median over timed blocks of the block's own value,
    after correcting the block for the host speed measured around it (see
    ``hostspeed.py``); the uncorrected medians are reported beside them.
    """
    from hostspeed import HostSpeed
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, args.quick)
    host = HostSpeed()
    try:
        workload.setup()
        setup_s = time.time() - started
        speeds = [host.sample()]
        if args.setup_only:
            return {"setup_s": setup_s * speeds[0], "setup_raw_s": setup_s}
        blocks = []
        begin = time.perf_counter()
        while True:
            blocks.append(workload.block())
            speeds.append(host.sample())
            elapsed = time.perf_counter() - begin
            # Stop at the whole number of blocks nearest to --seconds.
            if args.quick or elapsed * (1 + 0.5 / len(blocks)) >= args.seconds:
                break
        timed_s = time.perf_counter() - begin
        attempted, failed, messages = workload.check()
    finally:
        leftovers = workload.close()
    if leftovers:  # a child or segment outlived the pool: fail the workload
        messages = messages + leftovers
        failed = attempted
    # Host speed during a block: mean of the slices before and after it. A
    # paced block is set by the arrival clock, not by the CPU: its figures
    # do not scale with host speed and are reported as measured.
    during = [
        1.0 if block.paced else (before + after) / 2
        for block, before, after in zip(blocks, speeds, speeds[1:])
    ]
    # Host stalls only ever lengthen an open-loop latency, so for paced
    # blocks the cleanest block, not the median one, estimates it.
    latency = min if blocks[0].paced else statistics.median
    columns = {
        "subframes_per_s": (
            "1/s", statistics.median, [b.subframes / b.wall_s for b in blocks]
        ),
        "latency_p50_ms": ("ms", latency, [b.p50_ms for b in blocks]),
        "latency_p95_ms": ("ms", latency, [b.p95_ms for b in blocks]),
        "cpu_ms_per_subframe": (
            "ms", statistics.median,
            [b.cpu_s * 1e3 / b.subframes for b in blocks],
        ),
    }
    metrics = {}
    spread = {}
    for name, (unit, reduce, raw) in columns.items():
        if unit == "1/s":
            corrected = [value / speed for value, speed in zip(raw, during)]
        else:
            corrected = [value * speed for value, speed in zip(raw, during)]
        q1, _, q3 = quartiles(corrected)
        metrics[name] = {"value": reduce(corrected), "unit": unit}
        spread[name] = {"q1": q1, "q3": q3, "blocks": len(blocks),
                        "of": reduce.__name__, "raw": reduce(raw)}
    metrics["peak_rss_mb"] = {"value": workload.peak_rss_mb(), "unit": "MB"}
    return {
        "loop": workload.loop,
        "setup_s": setup_s * speeds[0],
        "setup_raw_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "messages": messages[:20],
        "metrics": metrics,
        "spread": spread,
        "host_speed": statistics.median(
            (a + b) / 2 for a, b in zip(speeds, speeds[1:])
        ),
        "latency_samples_per_block": blocks[0].samples,
        "timed_s": timed_s,
        "tolerated_failed_share": workload.tolerated_failed_share,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="epoch seconds at which the parent started us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out-dir", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)
    started = args.t0 if args.t0 is not None else time.time()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perf: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    if args.trace:
        from layers import trace_layers

        report = trace_layers(args.workload, args.seed, args.quick, args.out_dir)
    else:
        report = measure(args, started)
    report["workload"] = args.workload
    report["seed"] = args.seed
    report["host"] = host_fingerprint()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
