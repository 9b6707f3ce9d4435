"""Deadline / QoS analysis of the policy runs.

Section VI: "Responsiveness requirements limit the time permitted to
process a subframe. A base station therefore processes no more than two to
three subframes concurrently." On the paper's platform a subframe arrives
every DELTA = 5 ms, so the three-in-flight bound corresponds to a
~3·DELTA processing deadline. This module scores policy runs against that
deadline — the check that a power-management policy must not buy its watts
with missed subframes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.telemetry import IN_FLIGHT_BOUND
from ..sim.machine import SimResult

__all__ = ["DeadlineReport", "deadline_report", "IN_FLIGHT_BOUND"]


@dataclass
class DeadlineReport:
    """Deadline statistics of one simulated run."""

    deadline_s: float
    subframes: int
    misses: int
    p50_latency_s: float
    p99_latency_s: float
    max_latency_s: float

    @property
    def miss_rate(self) -> float:
        return self.misses / self.subframes if self.subframes else 0.0

    def __str__(self) -> str:
        return (
            f"{self.misses}/{self.subframes} deadline misses "
            f"({self.miss_rate * 100:.1f}%) at {self.deadline_s * 1e3:.0f} ms; "
            f"p50 {self.p50_latency_s * 1e3:.1f} ms, "
            f"p99 {self.p99_latency_s * 1e3:.1f} ms"
        )


def deadline_report(
    result: SimResult, deadline_s: float | None = None
) -> DeadlineReport:
    """Score a run's per-subframe latencies against the deadline.

    The default deadline is ``IN_FLIGHT_BOUND`` dispatch periods, i.e. the
    paper's two-to-three-subframes-in-flight responsiveness bound.
    """
    if deadline_s is None:
        deadline_s = IN_FLIGHT_BOUND * result.machine.subframe_period_s
    if deadline_s <= 0:
        raise ValueError("deadline_s must be positive")
    # Dispatch → terminal, like the telemetry fold: empty subframes report
    # zero latency, horizon-truncated ones run to the horizon. An aborted
    # subframe never delivered, so it misses whatever its latency (a
    # deadline abort pins it at the deadline).
    latency = np.asarray(result.subframe_latency_s, dtype=np.float64)
    resolved = result.ledger.summary()["resolved"].values()
    aborted = np.array([entry["state"] == "aborted" for entry in resolved], dtype=bool)
    misses = int(np.count_nonzero((latency > deadline_s) | aborted))
    return DeadlineReport(
        deadline_s=deadline_s,
        subframes=latency.size,
        misses=misses,
        p50_latency_s=float(np.percentile(latency, 50)),
        p99_latency_s=float(np.percentile(latency, 99)),
        max_latency_s=float(latency.max()),
    )
