"""Serve's flood rate against the receiver's own rate, in one process.

``serve.flood_vs_direct`` (``perf/layers.py``) is an unpaced two-cell mMTC
``serve()`` on the vectorized backend, in subframes a second, over the rate
of calling ``process_subframe`` on the same subframes one at a time. Both
sides run here, interleaved, on the same host, so the ratio does not depend
on how fast the host is. Above 1 the serve loop's batching buys more than
its ingest, admission and accounting cost; a serve loop whose cells fight
it for the GIL (a worker thread per cell) reads about 1.

The floor is derived from ten runs of this test with the PHY on the loop
thread, on a 2-CPU Xeon (best of three rounds each): 1.45, 1.56, 1.49,
1.55, 1.58, 1.47, 1.68, 1.66, 1.55, 1.50 (median 1.55). The same test with a
worker thread per cell read 0.98, 1.12, 1.10, 1.10 and 1.17 over five runs.
The floor sits at 1.3, between the slowest run of the one and the fastest
of the other.
"""

import time

from repro.serve import ServeConfig, serve
from repro.uplink import process_subframe

FLOOR = 1.3
ROUNDS = 3


def _flood() -> ServeConfig:
    """``perf/workloads.py``'s ``serve_flood`` at its 600 ticks a cell."""
    return ServeConfig(
        cells=2, subframes=600, delta_s=0.005, arrival="poisson", rate=2.0,
        mix="mmtc", max_users=10, backend="vectorized", keep_results=False,
        seed=1, pace=False, backpressure="block", queue_depth=8,
    )


def test_a_flood_outruns_the_receiver_called_one_subframe_at_a_time(
    monkeypatch,
):
    from repro.sched import inline

    seen: list = []
    real = inline.process_subframes

    def recording(subframes, **kwargs):
        seen.extend(subframes)
        return real(subframes, **kwargs)

    monkeypatch.setattr(inline, "process_subframes", recording)
    assert serve(_flood()).ok  # warm: DMRS banks, permutations, input pool
    monkeypatch.undo()
    direct = sorted(seen, key=lambda sf: sf.subframe_index)
    ratios = []
    for _ in range(ROUNDS):
        begin = time.perf_counter()
        result = serve(_flood())
        flood_rate = result.report["dispatched"] / (time.perf_counter() - begin)
        assert result.ok, result.errors
        begin = time.perf_counter()
        for subframe in direct:
            process_subframe(subframe, backend="vectorized")
        direct_rate = len(direct) / (time.perf_counter() - begin)
        ratios.append(flood_rate / direct_rate)
    print(f"\nflood / direct over {len(direct)} subframes: "
          + ", ".join(f"{r:.2f}" for r in ratios))
    assert max(ratios) >= FLOOR
