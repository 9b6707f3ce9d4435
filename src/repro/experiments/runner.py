"""One-shot reproduction runner: every experiment, one machine-readable
report.

``run_full_reproduction`` executes the whole evaluation (workload traces,
Fig. 12 estimation, the four-policy power study with gating) at a chosen
scale and returns a JSON-serializable dict pairing each measured quantity
with the paper's published value — the data behind EXPERIMENTS.md. It is
``build_report(run_experiments(...))``: the first half is the expensive
one and returns the experiment objects themselves, so a caller that wants
both those and the report (the test suite) pays for one run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..power.estimator import calibrate_from_cost_model
from ..sim.cost import CostModel
from ..uplink.parameter_model import RandomizedParameterModel
from .estimation import EstimationResult, run_estimation_experiment
from .power_study import PowerStudyResult, run_power_study
from .workload import WorkloadTrace, collect_workload_trace

__all__ = [
    "PAPER_VALUES",
    "Reproduction",
    "build_report",
    "run_experiments",
    "run_full_reproduction",
    "write_report",
]

#: The paper's published numbers, keyed like the report. The relative
#: columns are transcribed, not derived: Table II prints -22 % for
#: NAP+IDLE, where 19.9 / 25.0 - 1 is -20.4 %.
PAPER_VALUES = {
    "table2_total_power_w": {
        "NONAP": 25.0,
        "IDLE": 20.7,
        "NAP": 20.5,
        "NAP+IDLE": 19.9,
        "PowerGating": 18.5,
    },
    "table2_vs_nonap": {
        "NONAP": 0.0,
        "IDLE": -0.17,
        "NAP": -0.18,
        "NAP+IDLE": -0.22,
        "PowerGating": -0.26,
    },
    "table1_power_above_base_w": {
        "NONAP": 11.0,
        "IDLE": 6.7,
        "NAP": 6.5,
        "NAP+IDLE": 5.9,
    },
    "table1_reduction": {
        "NONAP": 0.0,
        "IDLE": 0.39,
        "NAP": 0.41,
        "NAP+IDLE": 0.46,
    },
    "fig12_max_underestimation": 0.054,
    "fig12_mean_abs_error": 0.012,
    "fig12_mean_activity": 0.5,
    "fig14_low_load_gap_w": 6.5,  # "6-7 W"
    "fig14_peak_gap_w": 1.0,  # "almost 1 W"
}


@dataclass
class Reproduction:
    """Every experiment of one evaluation run, at one scale and seed."""

    num_subframes: int
    seed: int
    workload: WorkloadTrace
    estimation: EstimationResult
    study: PowerStudyResult


def run_experiments(num_subframes: int = 4_000, seed: int = 0) -> Reproduction:
    """Run everything once; returns the experiment results themselves."""
    cost = CostModel()
    estimator = calibrate_from_cost_model(cost)
    model = RandomizedParameterModel(total_subframes=num_subframes, seed=seed)
    return Reproduction(
        num_subframes=num_subframes,
        seed=seed,
        workload=collect_workload_trace(model),
        estimation=run_estimation_experiment(
            num_subframes=num_subframes, seed=seed, cost=cost, estimator=estimator
        ),
        study=run_power_study(
            num_subframes=num_subframes, seed=seed, cost=cost, estimator=estimator
        ),
    )


def run_full_reproduction(
    num_subframes: int = 4_000, seed: int = 0
) -> dict:
    """Run everything; returns the paper-vs-measured report dict."""
    return build_report(run_experiments(num_subframes=num_subframes, seed=seed))


def build_report(reproduction: Reproduction) -> dict:
    """The paper-vs-measured report dict of one evaluation run."""
    num_subframes, seed = reproduction.num_subframes, reproduction.seed
    workload = reproduction.workload
    estimation = reproduction.estimation
    study = reproduction.study

    nonap = study.runs["NONAP"].power.total_w
    nap = study.runs["NAP"].power.total_w
    gap = nonap - nap
    n = gap.size
    low_gap = float(gap[: max(1, n // 6)].mean())
    peak_gap = float(gap[2 * n // 5 : 3 * n // 5].mean())

    report = {
        "scale": {
            "num_subframes": num_subframes,
            "seed": seed,
            "paper_num_subframes": 68_000,
        },
        "workload": workload.summary(),
        "fig12": {
            "mean_activity": estimation.mean_measured(),
            "max_underestimation": estimation.max_underestimation(),
            "mean_abs_error": estimation.mean_absolute_error(),
            "paper_max_underestimation": PAPER_VALUES["fig12_max_underestimation"],
            "paper_mean_abs_error": PAPER_VALUES["fig12_mean_abs_error"],
        },
        "fig13": {
            "active_cores_min": int(study.runs["NAP"].estimated_active_cores.min()),
            "active_cores_max": int(study.runs["NAP"].estimated_active_cores.max()),
        },
        "fig14": {
            "low_load_gap_w": low_gap,
            "peak_gap_w": peak_gap,
            "paper_low_load_gap_w": PAPER_VALUES["fig14_low_load_gap_w"],
            "paper_peak_gap_w": PAPER_VALUES["fig14_peak_gap_w"],
        },
        "table1": {
            name: {
                "power_above_base_w": above,
                "reduction": reduction,
                "paper_w": PAPER_VALUES["table1_power_above_base_w"][name],
            }
            for name, above, reduction in study.table1()
        },
        "table2": {
            name: {
                "total_power_w": power,
                "vs_nonap": vs_nonap,
                "vs_idle": vs_idle,
                "paper_w": PAPER_VALUES["table2_total_power_w"][name],
            }
            for name, power, vs_nonap, vs_idle in study.table2()
        },
    }
    report["shape_checks"] = _shape_checks(report)
    return report


def _shape_checks(report: dict) -> dict:
    """The pass/fail shape criteria of DESIGN.md §4."""
    table2 = {name: row["total_power_w"] for name, row in report["table2"].items()}
    ordering = sorted(table2, key=table2.get, reverse=True)
    return {
        "policy_ordering": ordering
        == ["NONAP", "IDLE", "NAP", "NAP+IDLE", "PowerGating"],
        "estimation_underestimates": report["fig12"]["max_underestimation"]
        >= 0.0,
        "estimation_error_small": report["fig12"]["mean_abs_error"] < 0.03,
        "nap_wins_most_at_low_load": report["fig14"]["low_load_gap_w"]
        > report["fig14"]["peak_gap_w"],
        "all_within_1p5w_of_paper": all(
            abs(row["total_power_w"] - row["paper_w"]) < 1.5
            for row in report["table2"].values()
        ),
    }


def write_report(report: dict, path: str | Path) -> Path:
    """Serialize the report to JSON (it holds plain Python values only)."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2))
    return path
