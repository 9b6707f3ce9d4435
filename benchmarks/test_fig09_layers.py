"""Fig. 9: maximum and minimum user layer counts per subframe.

The probability ramp makes layers climb from all-1 at the edges of the run
to all-4 at the peak.
"""

from repro.experiments.report import format_series
from repro.experiments.workload import collect_workload_trace


def test_fig09_layers(benchmark, workload_model):
    trace = benchmark.pedantic(
        lambda: collect_workload_trace(workload_model),
        rounds=1,
        iterations=1,
    )
    print()
    print("Fig. 9 — layers per subframe (every 25th subframe)")
    print(format_series("max", trace.subframe_indices, trace.max_layers, 16))
    print(format_series("min", trace.subframe_indices, trace.min_layers, 16))
    mid = trace.subframe_indices.size // 2
    assert trace.max_layers.max() == 4
    assert trace.min_layers.min() == 1
    assert trace.min_layers[mid] == 4  # peak workload: every user at 4 layers
    # Low probability at the start: layers are almost always 1 (an
    # occasional 2-3 is possible — each user makes three p=0.006 draws).
    assert trace.max_layers[:10].mean() < 2.0
