#!/usr/bin/env python3
"""Subframe workload estimation (Section VI-A, Figs. 11-12).

Calibrates the per-(layers, modulation) slopes ``k_LM`` the paper fits
from steady-state runs, then compares estimated against measured activity
over the randomized workload and reports the error statistics.

Run:  python examples/workload_estimation.py
"""

from repro.experiments import format_calibration, format_estimation, run_estimation_experiment
from repro.power import calibrate_from_simulation
from repro.sim import CostModel


def main() -> None:
    cost = CostModel()

    print("calibrating k_LM from steady-state simulator sweeps (Fig. 11)...")
    estimator, sweeps = calibrate_from_simulation(
        cost,
        settle_subframes=20,
        measure_subframes=60,
    )
    print(format_calibration(sweeps, estimator.slopes))

    print()
    print("running the randomized workload under NONAP to measure activity...")
    result = run_estimation_experiment(
        num_subframes=2_000, cost=cost, estimator=estimator
    )
    print(format_estimation(result))

    print()
    print(
        "The estimator feeds Eq. 5 (active cores = activity x 62 + 2), the"
        " basis of the NAP and NAP+IDLE policies and of power gating."
    )


if __name__ == "__main__":
    main()
