"""Plain-text rendering of the reproduced figures and tables.

The benchmark harness prints the same rows/series the paper reports, so a
run's output can be compared against the published numbers side by side.
"""

from __future__ import annotations

import numpy as np

from .estimation import EstimationResult
from .power_study import PowerStudyResult
from .runner import PAPER_VALUES
from .workload import WorkloadTrace

__all__ = [
    "format_table1",
    "format_table2",
    "format_workload_summary",
    "format_estimation",
    "format_metrics",
    "format_series",
    "format_calibration",
]


def format_series(name: str, xs, ys, max_points: int = 12) -> str:
    """One downsampled "series" line for a figure."""
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    if xs.size == 0:
        return f"{name}: (empty)"
    idx = np.linspace(0, xs.size - 1, min(max_points, xs.size)).astype(int)
    pairs = " ".join(f"({xs[i]:g},{ys[i]:.3g})" for i in idx)
    return f"{name}: {pairs}"


def format_workload_summary(trace: WorkloadTrace) -> str:
    """Figs. 7-9 envelope (users, PRBs, layers) as a text block."""
    s = trace.summary()
    lines = [
        "Fig. 7-9 workload trace summary",
        f"  users per subframe:      {s['users_min']:.0f} .. {s['users_max']:.0f}",
        f"  total PRBs (max):        {s['total_prb_max']:.0f}",
        f"  per-user PRBs:           {s['per_user_prb_min']:.0f} .. {s['per_user_prb_max']:.0f}",
        f"  layers:                  {s['layers_min']:.0f} .. {s['layers_max']:.0f}",
    ]
    return "\n".join(lines)


def format_estimation(result: EstimationResult) -> str:
    """Fig. 12 series and error statistics, with the paper's numbers."""
    paper_under = PAPER_VALUES["fig12_max_underestimation"] * 100
    paper_error = PAPER_VALUES["fig12_mean_abs_error"] * 100
    lines = [
        "Fig. 12 estimated vs measured activity",
        format_series("  measured ", result.times_s, result.measured),
        format_series("  estimated", result.times_s, result.estimated),
        f"  mean measured activity:  {result.mean_measured():.3f}",
        f"  max underestimation:     {result.max_underestimation() * 100:.1f}%  (paper: {paper_under:.1f}%)",
        f"  mean absolute error:     {result.mean_absolute_error() * 100:.1f}%  (paper: {paper_error:.1f}%)",
    ]
    return "\n".join(lines)


def format_table1(study: PowerStudyResult) -> str:
    """Table I (power above base) side by side with the paper's rows."""
    lines = [
        "Table I: average power dissipation when not including base power",
        f"  {'Technique':<10} {'Power (W)':>10} {'Reduction':>10}   {'paper W':>8} {'paper red.':>10}",
    ]
    for name, above, reduction in study.table1():
        pw = PAPER_VALUES["table1_power_above_base_w"][name]
        pr = PAPER_VALUES["table1_reduction"][name]
        lines.append(
            f"  {name:<10} {above:>10.1f} {reduction * 100:>9.0f}%   {pw:>8.1f} {pr * 100:>9.0f}%"
        )
    return "\n".join(lines)


def format_table2(study: PowerStudyResult) -> str:
    """Table II (total power + relative columns) next to the paper's."""
    lines = [
        "Table II: average total power dissipation",
        f"  {'Technique':<12} {'Power (W)':>10} {'vs NONAP':>9} {'vs IDLE':>8}   {'paper W':>8} {'paper vs NONAP':>14}",
    ]
    for name, power, vs_nonap, vs_idle in study.table2():
        pw = PAPER_VALUES["table2_total_power_w"][name]
        pn = PAPER_VALUES["table2_vs_nonap"][name]
        lines.append(
            f"  {name:<12} {power:>10.1f} {vs_nonap * 100:>8.0f}% {vs_idle * 100:>7.0f}%   "
            f"{pw:>8.1f} {pn * 100:>13.0f}%"
        )
    return "\n".join(lines)


def format_metrics(snapshot: dict) -> str:
    """Scheduler metrics (a :meth:`repro.obs.TelemetryCollector.snapshot`)
    as text.

    Counters first, then sketch percentiles (in the run's native clock),
    then per-core utilization — the numbers ``repro metrics`` prints after
    a simulated run.
    """
    lines = ["Scheduler metrics"]
    if snapshot["counters"]:
        lines.append("  counters:")
        for name, value in snapshot["counters"].items():
            lines.append(f"    {name:<28} {value:>12}")
    if snapshot["sketches"]:
        lines.append(
            f"  sketches in {snapshot['clock']} (count/mean/p50/p90/p99/max):"
        )
        for name, h in snapshot["sketches"].items():
            if h["count"] == 0:
                lines.append(f"    {name:<28} (empty)")
                continue
            lines.append(
                f"    {name:<28} {h['count']:>8} {h['mean']:>10.3g} "
                f"{h['p50']:>10.3g} {h['p90']:>10.3g} {h['p99']:>10.3g} "
                f"{h['max']:>10.3g}"
            )
    utilization = snapshot["per_core_utilization"]
    if utilization:
        cores = " ".join(f"{u:.2f}" for u in utilization)
        lines.append(f"  per-core utilization: {cores}")
    return "\n".join(lines)


def format_calibration(sweeps: dict, slopes: dict) -> str:
    """Fig. 11: activity-vs-PRB sweep per (layers, modulation) config."""
    lines = ["Fig. 11 activity vs PRBs (slope k_LM per configuration)"]
    for (layers, modulation), (prbs, acts) in sorted(sweeps.items()):
        k = slopes[(layers, modulation)]
        lines.append(
            f"  {modulation:>5} {layers}L: k={k:.6f}  "
            + format_series("sweep", prbs, acts, max_points=6)
        )
    return "\n".join(lines)
