"""The repo's benchmark: one command, every metric by name with its unit.

    python perf/run.py [--seed N] [--out FILE]      every workload, end to end
    python perf/run.py --traced                     the per-layer numbers
    python perf/run.py --workload W --seed N --seconds S --trace 0|1
                                                    one run, as BENCHMARK.json's
                                                    driver calls it

Each workload runs in its own fresh subprocess (``worker.py``), so set-up
time and peak memory are per workload. This parent never imports NumPy: it
pins the BLAS thread count in the environment the children inherit, starts
them, enforces a timeout, prints what they measured and, as the last line
of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero when a
correctness check failed. See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import write_json_atomic  # noqa: E402  (needs HERE on the path)

WORKLOADS = (
    "paper_mix",
    "shared_shape",
    "wideband",
    "mp_shards",
    "serve_paced",
    "serve_flood",
    "power_study",
)
#: Set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 3
#: Generous estimate of set-up + checks, added to ``--seconds`` and tripled
#: for the per-subprocess timeout.
OVERHEAD_S = 20.0
TRACE_EXPECTED_S = 40.0
#: All subprocesses of one workload together must end within this, so that
#: a hang is reported inside the driver's own 180 s limit.
WORKLOAD_LIMIT_S = 170.0


def child_environment() -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(arguments: list[str], timeout_s: float) -> dict | None:
    """Run ``worker.py``; its report, or ``None`` on timeout or crash.

    The child leads its own process group so that a timeout also takes the
    pool workers it spawned.
    """
    command = [sys.executable, os.path.join(HERE, "worker.py"), *arguments,
               "--t0", repr(time.time())]
    child = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        env=child_environment(),
        cwd=ROOT,
        start_new_session=True,
        text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"perf: worker timed out after {timeout_s:.0f} s: {arguments}",
              file=sys.stderr)
        return None
    finally:
        if child.poll() is None:  # timeout, Ctrl-C or SIGTERM: take the group
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    if child.returncode != 0:
        print(f"perf: worker exited with {child.returncode}: {arguments}",
              file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 quick: bool) -> dict:
    """One workload's result: correct, attempted, failed, metrics, detail."""
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if quick:
        base.append("--quick")
    limit = time.monotonic() + WORKLOAD_LIMIT_S

    def child(extra: list[str], expected_s: float) -> dict | None:
        remaining = max(1.0, limit - time.monotonic())
        return run_child(base + extra, min(3 * expected_s, remaining))

    if trace:
        report = child(["--trace", "1"], TRACE_EXPECTED_S)
        setups = []
    else:
        setup_runs = 1 if quick else SETUP_RUNS
        setups = [
            child(["--setup-only"], OVERHEAD_S) for _ in range(setup_runs - 1)
        ]
        report = child([], seconds + OVERHEAD_S)
        setups.append(report)
    if report is None or any(s is None for s in setups):
        # A hang or a crash is a failed run, not a missing one.
        return {"workload": name, "correct": False, "attempted": 1,
                "failed": 1, "metrics": {}, "messages": ["worker failed"]}
    metrics = report["metrics"]
    if not trace:
        values = [s["setup_s"] for s in setups]
        raw = [s["setup_raw_s"] for s in setups]
        metrics["setup_s"] = {
            "value": statistics.median(values), "unit": "s",
            "base": "median of %d set-ups; uncorrected %s" % (
                len(values), " ".join(f"{v:.3f}" for v in raw)),
        }
    tolerated = report.get("tolerated_failed_share", 0.0) * report["attempted"]
    report["correct"] = report["failed"] <= tolerated and not report["messages"]
    return report


def print_report(report: dict, trace: int) -> None:
    name = report["workload"]
    host = report.get("host", {})
    print(f"== {name} (seed {report.get('seed')}, "
          f"{'traced, per layer' if trace else report.get('loop', '')}) ==")
    if host:
        print("   host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    if "host_speed" in report:
        print(f"   host speed {report['host_speed']:.3f} of nominal during the "
              f"timed {report['timed_s']:.1f} s; times below are at nominal "
              "speed, uncorrected medians in brackets")
    spread = report.get("spread", {})
    for metric, entry in report["metrics"].items():
        note = entry.get("base", "")
        if metric in spread:
            row = spread[metric]
            note = (f"{row['of']} of {row['blocks']} blocks, q1 {row['q1']:.6g} "
                    f".. q3 {row['q3']:.6g}; uncorrected {row['raw']:.6g}")
            if metric.startswith("latency_"):
                note += (f"; {report['latency_samples_per_block']} "
                         "samples a block")
        print(f"   {metric:<44} {entry['value']:>14.6g} {entry['unit']:<6}"
              + (f" ({note})" if note else ""))
    attempted, failed = report["attempted"], report["failed"]
    what = "layer checks" if trace else "subframes"
    print(f"   {'failed_share':<44} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} {what})")
    for message in report["messages"]:
        print(f"   CHECK FAILED: {message}")


def contract_line(report: dict) -> str:
    """The result object the driver reads from the last line of stdout."""
    return json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in report["metrics"].items()
        },
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed seconds per workload (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="one tiny block per workload (tests)")
    parser.add_argument("--force", action="store_true",
                        help="run even if the host is already loaded")
    parser.add_argument("--out", default=None,
                        help="write all results as JSON (atomically)")
    args = parser.parse_args(argv)
    trace = 1 if args.traced else args.trace
    # A terminated parent must not leave a worker (and its pool) behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perf: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2

    if args.workload:
        report = run_workload(
            args.workload, args.seed, args.seconds, trace, args.quick
        )
        print_report(report, trace)
        if args.out:
            write_json_atomic(args.out, report)
        print(contract_line(report))
        return 0 if report["correct"] else 1

    load, cpus = os.getloadavg()[0], os.cpu_count() or 1
    if load > cpus and not args.force:
        print(f"perf: 1-minute load average {load:.2f} exceeds {cpus} CPUs; "
              "timings would measure the other load. Re-run when the host is "
              "idle, or pass --force.", file=sys.stderr)
        return 3
    reports = []
    for name in WORKLOADS:
        report = run_workload(name, args.seed, args.seconds, trace, args.quick)
        print_report(report, trace)
        reports.append(report)
    failed = [r["workload"] for r in reports if not r["correct"]]
    out = args.out or os.path.join(
        HERE, "out", "layers.json" if trace else "results.json"
    )
    write_json_atomic(out, {"seed": args.seed, "trace": trace,
                            "seconds": args.seconds, "workloads": reports})
    print(f"results written to {out}")
    print("all checks passed" if not failed else f"CHECKS FAILED: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
