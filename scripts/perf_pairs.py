"""Paired parent/change runs of the benchmark, with a verdict per metric.

    python scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --seed N [--workload W]... [--pairs 10]
        [--json PATH]

For each workload W (repeat ``--workload``; without it, every workload of
``CHANGE_DIR/BENCHMARK.json`` in file order, which is what a change that
claims no gain has to show) runs ``python perf/run.py --workload W --seed N
--trace 0`` in the two checkouts alternately (which side goes first
alternates too, so a slow phase of the host hits both sides of a pair),
prints every run, then every end-to-end metric's medians, quartiles and
wins, and applies ``perf/README.md`` "Stating a claim" steps 3-4 with the
bounds of ``BENCHMARK.json``:

* **gain** — the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's own
  inter-quartile distance;
* **worse** — the change's median is worse than the parent's by more than
  the metric's bound;
* **unresolved** — neither, but one side's quartiles lie further apart than
  the bound, so "no worse" cannot be told (unless every run of the change
  beats every run of the parent);
* **no worse** — otherwise.

Exits 1 when any metric of any workload is **worse** or missing from a run,
or the change fails a larger share of its operations. ``--json PATH`` also
writes the verdict tables as one ``perf-pairs/1`` object (see
:func:`main`). It drives the benchmark from outside and imports nothing
from ``perf/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

__all__ = ["SCHEMA", "quartiles", "verdict", "main"]

#: The ``--json`` object's schema name.
SCHEMA = "perf-pairs/1"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), the quartiles counted among the runs themselves."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> dict:
    """The rule above for one metric: ``parent[i]`` and ``change[i]`` are
    the two sides of pair ``i``; ``better`` is ``"higher"`` or ``"lower"``;
    ``bound`` is the relative worsening the benchmark tolerates."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs on both sides")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    improvement = sign * (c_median - p_median)
    scale = abs(p_median) or 1.0
    spread = max((p_q3 - p_q1) / scale, (c_q3 - c_q1) / (abs(c_median) or 1.0))
    every_run_better = (
        min(change) > max(parent) if better == "higher" else max(change) < min(parent)
    )
    if wins >= 0.9 * len(parent) and improvement > p_q3 - p_q1:
        word = "gain"
    elif -improvement > bound * scale:
        word = "worse"
    elif spread > bound and not every_run_better:
        word = "unresolved"
    else:
        word = "no worse"
    return {
        "verdict": word,
        "wins": wins,
        "pairs": len(parent),
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "relative_change": (c_median - p_median) / scale,
        "spread": spread,
    }


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One ``perf/run.py`` run in ``checkout``: its result object."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # each side must import its own src/
    done = subprocess.run(
        [sys.executable, os.path.join("perf", "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=False,
    )
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict):
        raise SystemExit(f"perf_pairs: run in {checkout} printed no result "
                         f"object (exit {done.returncode})")
    if done.returncode != 0 or not result["correct"]:
        print(f"perf_pairs: run in {checkout} was not correct "
              f"(exit {done.returncode})", file=sys.stderr)
    return result


def run_pairs(
    sides: dict[str, str], workload: str, seed: int, pairs: int, end_to_end: list[dict]
) -> tuple[int, dict]:
    """``pairs`` alternating pairs of one workload, every run and the verdict
    table printed. Returns 1 if a metric is worse or missing or more
    operations fail (else 0), and the table as the ``--json`` object's
    entry for the workload."""
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    print(f"{workload}, seed {seed}: {pairs} pairs, "
          f"parent {sides['parent']} / change {sides['change']}")
    print("pair first " + " ".join(f"{m['name']:>24}" for m in end_to_end) + "   failed")
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], workload, seed))
        cells = []
        for metric in end_to_end:
            p, c = (runs[s][-1]["metrics"].get(metric["name"], {}).get("value")
                    for s in sides)
            cells.append(f"{p:.5g} -> {c:.5g}" if None not in (p, c) else "-")
        failed = " -> ".join(
            f"{runs[s][-1]['failed']}/{runs[s][-1]['attempted']}"
            for s in sides
        )
        print(f"{pair + 1:>4} {order[0]:>6}" + " ".join(f"{c:>24}" for c in cells)
              + f"   {failed}", flush=True)

    print()
    print(f"{'metric':<20} {'verdict':<10} {'wins':>5}  {'parent q1 / median / q3':<32} "
          f"{'change q1 / median / q3':<32} {'change':>8} {'bound':>6}")
    worst = 0
    table: dict[str, dict] = {}
    for metric in end_to_end:
        name = metric["name"]
        values = {
            side: [r["metrics"][name]["value"] for r in runs[side] if name in r["metrics"]]
            for side in sides
        }
        if len(values["parent"]) != pairs or len(values["change"]) != pairs:
            print(f"{name:<20} {'missing':<10}")
            table[name] = {"verdict": "missing"}
            worst = 1
            continue
        row = verdict(values["parent"], values["change"], metric["better"], metric["bound"])
        table[name] = {
            "verdict": row["verdict"],
            "wins": row["wins"],
            "pairs": row["pairs"],
            **{
                side: dict(zip(("q1", "median", "q3"), row[side]), runs=values[side])
                for side in sides
            },
            "change_pct": 100.0 * row["relative_change"],
            "bound": metric["bound"],
        }
        print(
            f"{name:<20} {row['verdict']:<10} {row['wins']:>2}/{row['pairs']:<2}  "
            + "{:<32} {:<32}".format(
                *(" / ".join(f"{v:.5g}" for v in row[side]) for side in sides)
            )
            + f" {row['relative_change']:>+8.1%} {metric['bound']:>6.0%}"
        )
        if row["verdict"] == "worse":
            worst = 1
    failed = {s: sum(r["failed"] for r in runs[s]) for s in sides}
    attempted = {s: sum(r["attempted"] for r in runs[s]) for s in sides}
    print("failed share: " + ", ".join(
        f"{s} {failed[s]}/{attempted[s]}" for s in sides))
    if failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]:
        print("the change fails a larger share of its operations: no gain counts")
        worst = 1
    entry = {
        "metrics": table,
        "failed": failed,
        "attempted": attempted,
    }
    return worst, entry


def main(argv=None) -> int:
    """The command line above. With ``--json PATH`` the tables also go to
    ``PATH``: ``{"schema": SCHEMA, "seed", "pairs", "exit", "workloads":
    {W: {"metrics": {M: row}, "failed": {side: n}, "attempted": {side:
    n}}}}``, ``side`` being ``parent`` and ``change``; a row is ``{"verdict":
    "missing"}`` or the verdict, ``wins`` of ``pairs``, each side's ``q1`` /
    ``median`` / ``q3`` and ``runs`` (pair order), ``change_pct`` (the
    medians' change, % of the parent's) and the metric's ``bound``."""
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("parent_dir", metavar="PARENT_DIR")
    parser.add_argument("change_dir", metavar="CHANGE_DIR")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", metavar="PATH",
                        help="also write the verdict tables to PATH as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with open(os.path.join(args.change_dir, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    worst = 0
    tables: dict[str, dict] = {}
    for number, workload in enumerate(workloads):
        if number:
            print()
        bad, tables[workload] = run_pairs(
            sides, workload, args.seed, args.pairs, benchmark["end_to_end"]
        )
        worst |= bad
    if args.json:
        record = {"schema": SCHEMA, "seed": args.seed, "pairs": args.pairs,
                  "exit": worst, "workloads": tables}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return worst


if __name__ == "__main__":
    sys.exit(main())
