"""Fig. 7: number of users for every 25th subframe.

Regenerates the user-count series of the randomized input parameter model
and checks the paper's qualitative claims: the count "varies constantly
and rapidly" across the full 1..10 range.
"""

from repro.experiments.report import format_series
from repro.experiments.workload import collect_workload_trace


def test_fig07_users(benchmark, workload_model):
    trace = benchmark.pedantic(
        lambda: collect_workload_trace(workload_model),
        rounds=1,
        iterations=1,
    )
    print()
    print("Fig. 7 — users per subframe (every 25th subframe)")
    print(format_series("users", trace.subframe_indices, trace.num_users, 16))
    print(
        f"range: {trace.num_users.min()}..{trace.num_users.max()} "
        "(paper: varies rapidly across 1..10)"
    )
    assert trace.num_users.max() == 10
    assert trace.num_users.min() <= 3
