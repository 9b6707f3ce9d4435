"""Tests of the benchmark harness itself (not part of tier-1).

    python -m pytest perf -q        # < 60 s

``--quick`` runs one tiny block per workload, so these check plumbing and
contracts, not speed: every workload and the traced path run end to end,
``BENCHMARK.json`` names exactly the metrics ``run.py`` prints, layer
budgets add up, a seed fixes inputs and exact counts, and a corrupted
reference turns the exit code non-zero.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: Per-layer metrics that must repeat exactly for one (workload, seed).
EXACT = re.compile(
    r"^(sim\.(tasks_executed|steals\..*|mean_activity|deadline_miss_share)"
    r"|power\.mean_total_w\..*|phy\..*_bytes|serve\.offered_users"
    r"|uplink\.(crc_ok_share|groups_per_subframe|users_per_group))$"
)


def run(*args, env=None, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, *args],
        capture_output=True, text=True, timeout=150, cwd=cwd,
        env={**os.environ, **(env or {})},
    )


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"], metric["name"]
        assert isinstance(entry["value"], float), metric["name"]


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert BENCHMARK["paths"] == ["perf"]
    assert BENCHMARK["command"] == ["python3", "perf/run.py"]
    sys.path.insert(0, HERE)
    try:
        import run as run_module
    finally:
        sys.path.remove(HERE)
    # serve_paced runs in the suite but is not gated: its latency follows
    # the host's idle-wake behaviour, not the program (perf/BASELINE.md).
    assert [w for w in run_module.WORKLOADS if w != "serve_paced"] == WORKLOADS
    names = WORKLOADS + [
        m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * 2 * BENCHMARK["run_seconds"] <= 3420  # set-up doubles a run


@pytest.mark.parametrize("workload", WORKLOADS + ["serve_paced"])
def test_quick_end_to_end(workload):
    proc = run("--workload", workload, "--quick", "--seed", "5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    check_metrics(result, BENCHMARK["end_to_end"])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_share" in proc.stdout


@pytest.fixture(scope="module")
def traced_twice():
    """The traced path, twice with one seed (paper_mix and serve_flood)."""
    runs = {}
    for workload in ("paper_mix", "serve_flood"):
        procs = [
            run("--workload", workload, "--quick", "--seed", "5", "--trace", "1")
            for _ in range(2 if workload == "paper_mix" else 1)
        ]
        for proc in procs:
            assert proc.returncode == 0, proc.stdout + proc.stderr
        runs[workload] = [result_of(proc) for proc in procs]
    return runs


def test_traced_run_prints_every_layer_metric(traced_twice):
    for results in traced_twice.values():
        for result in results:
            check_metrics(result, BENCHMARK["per_layer"])


def test_layer_budgets_add_up(traced_twice):
    for results in traced_twice.values():
        for result in results:
            assert result["correct"] is True and result["failed"] == 0
    metrics = traced_twice["paper_mix"][0]["metrics"]

    def value(name):
        return metrics[name]["value"]

    stages = sum(
        value(f"uplink.{k}_ms")
        for k in ("chest", "combiner", "symbol", "finalize", "self")
    )
    assert stages == pytest.approx(value("uplink.call_ms"), rel=0.02)
    split = sum(
        value(f"serve.{k}_ms_mean")
        for k in ("lag", "admission", "queue_wait", "compute", "marshal")
    )
    assert split == pytest.approx(value("serve.due_to_terminal_ms_mean"), rel=0.05)
    study = sum(
        value(name) for name in metrics
        if name.startswith("sim.run_s.") or re.match(r"power\.\w+_s$", name)
    )
    assert study == pytest.approx(value("power_study.wall_s"), rel=0.03)
    assert os.path.exists(os.path.join(HERE, "out", "trace-paper_mix.json"))


def test_same_seed_gives_identical_exact_counts(traced_twice):
    first, second = (r["metrics"] for r in traced_twice["paper_mix"])
    exact = [name for name in first if EXACT.match(name)]
    assert len(exact) >= 30
    for name in exact:
        assert first[name]["value"] == second[name]["value"], name


def test_same_seed_gives_identical_inputs(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import workloads

    def fingerprint(traffic):
        return [
            (sf.subframe_index, [tuple(map(str, (u.num_prb, u.layers,
             u.modulation))) for u in sf.users], sf.grid.tobytes())
            for sf in traffic
        ]

    for name in ("paper_mix", "shared_shape", "wideband"):
        one = fingerprint(workloads.traffic_for(name, 3, quick=True))
        assert one == fingerprint(workloads.traffic_for(name, 3, quick=True))
        assert one != fingerprint(workloads.traffic_for(name, 4, quick=True))
    config = workloads.serve_config(3, paced=True, quick=True)
    assert config.seed == 3 and config.pace and config.backpressure == "shed"


def test_corrupted_reference_exits_non_zero():
    proc = run("--workload", "wideband", "--quick",
               env={"PERF_CORRUPT_REFERENCE": "1"})
    assert proc.returncode != 0
    result = result_of(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert "CHECK FAILED" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run("--workload", "paper_mix", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path,
               script=str(tmp_path / "perf" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
