"""Overload admission control: shed work the machine provably cannot finish.

The paper's real-time contract is one subframe's work per DELTA (5 ms).
The Eq. 3-4 estimator already predicts a subframe's activity share before
any of it executes — the same prediction the NAP governor uses to *shrink*
the machine (Eq. 5) can tell an overloaded dispatcher the opposite: the
offered load exceeds what even the full machine can retire within the
deadline budget. Rather than silently falling behind (unbounded queue
growth, every later subframe missing its deadline), the
:class:`AdmissionController` sheds whole users — last-scheduled first,
never partial users — until the estimate fits, and reports exactly what it
dropped so the ledger can account the subframe as ``shed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..uplink.user import UserParameters

if TYPE_CHECKING:  # import cycle: power.estimator -> sim -> faults -> here
    from ..power.estimator import WorkloadEstimator

__all__ = ["AdmissionDecision", "AdmissionController"]


@dataclass(frozen=True)
class AdmissionDecision:
    """What the controller admitted and shed for one subframe."""

    admitted: tuple[UserParameters, ...]
    shed: tuple[UserParameters, ...]
    estimated_activity: float
    budget_activity: float

    @property
    def shed_any(self) -> bool:
        return bool(self.shed)

    @property
    def shed_user_ids(self) -> tuple[int, ...]:
        return tuple(u.user_id for u in self.shed)


class AdmissionController:
    """Sheds users when Eq. 4's estimate exceeds the DELTA budget.

    Parameters
    ----------
    estimator:
        Calibrated Eq. 3-4 estimator (activity is the fraction of the
        whole machine's worker-cycles one DELTA provides, Eq. 1-2).
    max_activity:
        Admission budget as an activity fraction. 1.0 would admit up to
        the machine's theoretical capacity; the default leaves the same
        kind of headroom Eq. 5 does with its +2 over-provisioned cores.
    """

    def __init__(
        self,
        estimator: WorkloadEstimator,
        max_activity: float = 0.9,
    ) -> None:
        if max_activity <= 0:
            raise ValueError("max_activity must be positive")
        self.estimator = estimator
        self.max_activity = max_activity

    def admit(
        self, users: list[UserParameters], load_factor: float = 1.0
    ) -> AdmissionDecision:
        """Split one subframe's users into (admitted, shed).

        Users are shed from the tail of the scheduling order (the users
        the eNodeB scheduler admitted last), so the decision is
        deterministic and independent of dict/set ordering.

        ``load_factor`` is the work amplification applied to the estimate
        (an injected OVERLOAD, serve's adaptive controller). It must be
        positive: a zero/negative factor would zero (or invert) the
        estimate and silently admit everything.
        """
        if load_factor <= 0:
            raise ValueError("load_factor must be positive")
        admitted = list(users)
        shed: list[UserParameters] = []
        estimate = self.estimator.estimate_subframe(admitted) * load_factor
        while admitted and estimate > self.max_activity:
            shed.append(admitted.pop())
            estimate = self.estimator.estimate_subframe(admitted) * load_factor
        shed.reverse()
        return AdmissionDecision(
            admitted=tuple(admitted),
            shed=tuple(shed),
            estimated_activity=estimate,
            budget_activity=self.max_activity,
        )
