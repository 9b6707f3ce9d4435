"""The paper's closing claim (Section VIII): the evaluation's ~50 % average
load is pessimistic — "most base stations have an average load of about
25 %" — and the estimation-guided techniques "would show even greater
benefits for a more realistic use case."

This bench builds that 25 %-average scenario (the same randomized model
with half the PRB budget) and verifies the claim: the *relative* savings
of NAP+IDLE and PowerGating over NONAP/IDLE exceed the 50 %-load run's.
"""

import numpy as np

from repro.experiments.power_study import run_power_study
from repro.uplink.parameter_model import RandomizedParameterModel

SUBFRAMES = 1_200


def test_low_load_scenario(benchmark, power_study):
    """power_study is the ~50 % scenario; rerun the pipeline at ~25 %."""

    def run_low():
        import repro.experiments.power_study as ps
        from repro.power.estimator import calibrate_from_cost_model
        from repro.sim.cost import CostModel

        cost = CostModel()
        # The same randomized workload at half the PRB budget.
        model = RandomizedParameterModel(
            total_subframes=SUBFRAMES, seed=0, max_prb=100, max_users=6
        )
        from repro.power.gating import PowerGatingModel
        from repro.power.governor import make_policy
        from repro.power.model import PowerModel
        from repro.sim.machine import MachineSimulator, SimConfig

        estimator = calibrate_from_cost_model(cost)
        powers = {}
        active_hist = None
        for name in ("NONAP", "IDLE", "NAP+IDLE"):
            policy = make_policy(name, cost.machine.num_workers, estimator)
            sim = MachineSimulator(
                cost, policy=policy, config=SimConfig(drain_margin_s=0.0)
            ).run(model, num_subframes=SUBFRAMES)
            trace = PowerModel().evaluate(sim.trace, cost.machine.clock_hz)
            powers[name] = trace
            if name == "NAP+IDLE":
                active_hist = np.array(policy.active_cores_history)
        gated = PowerGatingModel().apply_to_power(
            powers["NAP+IDLE"].total_w, 0.1, active_hist, cost.machine.subframe_period_s
        )
        return powers, gated

    powers, gated = benchmark.pedantic(run_low, rounds=1, iterations=1)
    mean_activity_proxy = powers["NONAP"].dynamic_w.mean() / (62 * 0.188)
    print()
    print("Low-load (~25 %) scenario vs the paper's ~50 % evaluation")
    print(f"  NONAP-normalized load proxy: {mean_activity_proxy:.2f}")
    for name, trace in powers.items():
        print(f"  {name:9s} mean {trace.mean_total():.2f} W")
    print(f"  PowerGating mean {gated.mean():.2f} W")

    low_gating_vs_idle = 1.0 - gated.mean() / powers["IDLE"].mean_total()
    high_gating_vs_idle = 1.0 - power_study.mean_power("PowerGating") / power_study.mean_power("IDLE")
    print(
        f"  gating vs IDLE: {low_gating_vs_idle * 100:.0f}% at low load vs "
        f"{high_gating_vs_idle * 100:.0f}% at 50% load"
    )

    # The headline: the relative win grows as load falls.
    assert low_gating_vs_idle > high_gating_vs_idle
    # And NAP+IDLE's relative win over NONAP grows too.
    low_napidle = 1.0 - powers["NAP+IDLE"].mean_total() / powers["NONAP"].mean_total()
    high_napidle = 1.0 - power_study.mean_power("NAP+IDLE") / power_study.mean_power("NONAP")
    assert low_napidle > high_napidle
