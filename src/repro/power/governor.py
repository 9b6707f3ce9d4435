"""Power-aware resource-management policies (Section VI-B).

Four policies, exactly the paper's:

* **NONAP** — all workers always active; idle workers busy-spin.
* **IDLE** (reactive) — workers that find no work execute ``nap`` and wake
  periodically to re-check.
* **NAP** (proactive) — Eq. 5: ``active_cores = estimated_activity ×
  max_cores + 2``; surplus workers are napped and do not look for work.
* **NAP+IDLE** — both combined.

NONAP and IDLE are one always-on machine that differs only in whether an
idle worker naps: both are :class:`repro.sim.machine.AlwaysOnPolicy`
(``reactive_nap`` False/True). Each policy object plugs into
:class:`repro.sim.machine.MachineSimulator` (``reactive_nap`` flag +
``target_active_workers``).
"""

from __future__ import annotations

import math

from ..uplink.user import UserParameters
from .estimator import WorkloadEstimator

__all__ = [
    "OVER_PROVISION_CORES",
    "NapPolicy",
    "NapIdlePolicy",
    "estimated_active_cores",
    "make_policy",
    "POLICY_NAMES",
]

#: Eq. 5's safety margin: "the system is over-provisioned with two cores".
OVER_PROVISION_CORES = 2


def estimated_active_cores(
    estimated_activity: float,
    max_cores: int,
    over_provision: int = OVER_PROVISION_CORES,
) -> int:
    """Eq. 5, before clamping to the physically available workers."""
    if max_cores < 1:
        raise ValueError("max_cores must be >= 1")
    if estimated_activity < 0:
        raise ValueError("estimated_activity must be >= 0")
    return int(math.ceil(estimated_activity * max_cores)) + over_provision


class NapPolicy:
    """Proactive: nap workers beyond the Eq. 5 estimate (+2 margin)."""

    name = "NAP"
    reactive_nap = False

    def __init__(
        self,
        num_workers: int,
        estimator: WorkloadEstimator,
        over_provision: int = OVER_PROVISION_CORES,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.estimator = estimator
        self.over_provision = over_provision
        #: Raw Eq. 5 value per processed subframe (for Fig. 13 / gating).
        self.active_cores_history: list[int] = []

    def target_active_workers(
        self, users: list[UserParameters], subframe_index: int
    ) -> int:
        estimate = self.estimator.estimate_subframe(users)
        raw = estimated_active_cores(
            estimate, self.num_workers, self.over_provision
        )
        self.active_cores_history.append(raw)
        return min(self.num_workers, raw)


class NapIdlePolicy(NapPolicy):
    """Proactive Eq. 5 napping plus reactive napping of the active set."""

    name = "NAP+IDLE"
    reactive_nap = True


POLICY_NAMES = ("NONAP", "IDLE", "NAP", "NAP+IDLE")


def make_policy(
    name: str,
    num_workers: int,
    estimator: WorkloadEstimator | None = None,
    over_provision: int = OVER_PROVISION_CORES,
):
    """Factory by paper name, exactly one of :data:`POLICY_NAMES`."""
    # Deferred: repro.sim.machine imports repro.obs, which imports this
    # package.
    from ..sim.machine import AlwaysOnPolicy

    if name in ("NONAP", "IDLE"):
        return AlwaysOnPolicy(num_workers, reactive_nap=name == "IDLE")
    if name in ("NAP", "NAP+IDLE"):
        if estimator is None:
            raise ValueError(f"policy {name!r} requires a WorkloadEstimator")
        cls = NapPolicy if name == "NAP" else NapIdlePolicy
        return cls(num_workers, estimator, over_provision)
    raise ValueError(f"unknown policy {name!r}")
