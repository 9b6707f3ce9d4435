"""Fig. 8: total / max / min physical resource blocks per subframe.

Paper: "The maximum number of PRBs allocated to a user varies between 20
and 190, while the minimum number of PRBs varies between two ... and 100."
"""

from repro.experiments.report import format_series
from repro.experiments.workload import collect_workload_trace


def test_fig08_prbs(benchmark, workload_model):
    trace = benchmark.pedantic(
        lambda: collect_workload_trace(workload_model),
        rounds=1,
        iterations=1,
    )
    print()
    print("Fig. 8 — PRBs per subframe (every 25th subframe)")
    print(format_series("total", trace.subframe_indices, trace.total_prb, 12))
    print(format_series("max  ", trace.subframe_indices, trace.max_prb, 12))
    print(format_series("min  ", trace.subframe_indices, trace.min_prb, 12))
    print(
        f"per-user max range {trace.max_prb.min()}..{trace.max_prb.max()} "
        "(paper: ~20..190); "
        f"per-user min range {trace.min_prb.min()}..{trace.min_prb.max()} "
        "(paper: 2..~100)"
    )
    assert trace.total_prb.max() <= 200
    assert trace.max_prb.max() >= 150
    assert trace.min_prb.min() == 2
