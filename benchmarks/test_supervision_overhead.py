"""Zero-death cost of the worker supervisor (must stay under 2%).

With ``respawn=True`` but no worker dying, the multiprocess pool's hot
path gains exactly two things: a ``note_progress`` per completed reply
and an empty ``pending`` probe per pump. As with the fault-overhead bound,
shared-runner wall-clock deltas are noisier than the budget itself, so
the asserted number is built from measured unit costs times the counts
the scenario actually performs; the end-to-end supervised-vs-off delta
is printed and loosely guarded.
"""

import time

from repro.phy import Modulation
from repro.sched.multiprocess import MultiprocessRuntime
from repro.sched.supervisor import WorkerSupervisor
from repro.uplink import SubframeFactory, UserParameters

WORKERS = 2
SUBFRAMES = 6


def _subframes():
    factory = SubframeFactory(seed=0)
    users = [
        UserParameters(0, 24, 2, Modulation.QAM64),
        UserParameters(1, 16, 2, Modulation.QAM16),
        UserParameters(2, 8, 1, Modulation.QPSK),
    ]
    return [factory.synthesize(users, index) for index in range(SUBFRAMES)]


def _run(subframes, supervised):
    runtime = MultiprocessRuntime(num_workers=WORKERS, respawn=supervised)
    runtime.start()  # spawn cost excluded: the bound is steady-state
    try:
        start = time.perf_counter()
        for subframe in subframes:
            runtime.submit(subframe)
        runtime.drain()
        elapsed = time.perf_counter() - start
        assert runtime.ledger.ok
        assert runtime.ledger.counts()["ok"] == len(subframes)
        if supervised:
            assert runtime.supervisor.deaths == 0
            assert not runtime.supervisor.fail_stop
    finally:
        runtime.close()
    return elapsed


def test_zero_death_supervision_overhead_under_two_percent():
    subframes = _subframes()
    off_times, on_times = [], []
    for _ in range(3):
        off_times.append(_run(subframes, supervised=False))
        on_times.append(_run(subframes, supervised=True))
    off_best, on_best = min(off_times), min(on_times)

    # Unit costs of the supervised hot path, measured directly.
    reps = 20_000
    supervisor = WorkerSupervisor(WORKERS)
    begin = time.perf_counter()
    for _ in range(reps):
        supervisor.note_progress(0)
    progress_s = (time.perf_counter() - begin) / reps

    begin = time.perf_counter()
    for _ in range(reps):
        # The per-pump probe with nothing dead: the constant-time
        # pending-respawn test.
        if not supervisor.pending:
            pass
    pump_s = (time.perf_counter() - begin) / reps

    # Counts: one progress reset per ok reply, one probe per pump — the
    # drain loop pumps at the 20ms watchdog cadence, and the serve loop at
    # its own 2ms cadence; bound against the *faster* cadence so the
    # assertion covers both callers.
    pumps = max(1.0, on_best / 0.002)
    armed_cost_s = len(subframes) * progress_s + pumps * pump_s
    print(
        f"\nsupervision off: {off_best:.3f}s  on: {on_best:.3f}s "
        f"(end-to-end ratio {on_best / off_best:.3f}); "
        f"{len(subframes)} resets x {progress_s * 1e6:.2f}us + "
        f"{pumps:.0f} probes x {pump_s * 1e6:.2f}us = "
        f"{armed_cost_s * 1e3:.3f}ms ({armed_cost_s / off_best * 100:.2f}%)"
    )
    assert armed_cost_s < off_best * 0.02
    # Gross-regression guard on the measured delta (loose: spawn-pool
    # scheduling noise between identical configs exceeds 2%).
    assert on_best <= off_best * 1.5
