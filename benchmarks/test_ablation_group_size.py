"""Ablation: power-gating group size (Section VI-C assumes groups of 8).

Smaller power domains track the demand more tightly (more cores off) at
the cost of more domains on the die; larger groups quantize away most of
the savings. This reruns Eqs. 6-9 over the same NAP+IDLE run with group
sizes 4, 8 (paper), 16 and 32.
"""

from repro.power.gating import PowerGatingModel


def test_ablation_gating_group_size(benchmark, power_study):
    active = power_study.runs["NAP+IDLE"].estimated_active_cores

    def sweep():
        savings = {}
        for group in (4, 8, 16, 32):
            model = PowerGatingModel(group_size=group)
            savings[group] = model.evaluate(active).mean_saving()
        return savings

    savings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("Ablation — power-gating group size (mean saving, W)")
    for group, saving in savings.items():
        marker = "  <- paper" if group == 8 else ""
        print(f"  groups of {group:>2}: {saving:.2f} W{marker}")

    # Finer domains always save at least as much energy.
    assert savings[4] >= savings[8] >= savings[16] >= savings[32]
    # The paper's groups-of-8 point retains most of the fine-grained win.
    assert savings[8] > 0.6 * savings[4]
    # Whole-chip-half domains throw away a large chunk.
    assert savings[32] < 0.8 * savings[8]
