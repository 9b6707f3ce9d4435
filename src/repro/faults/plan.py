"""Seeded fault plans (the injection half of ``repro.faults``).

A :class:`FaultPlan` is a *static* list of :class:`FaultSpec` records built
up-front from a seed — never sampled at run time — so the same seed always
produces the same plan, and a plan is replayed by regenerating it from
its seed on any machine (the Vienna LTE-A simulator's reproducible
impairment-injection idiom). The adapters in :mod:`repro.faults.injector`
and the backend hooks (``MachineSimulator(faults=...)``,
``ThreadedRuntime(faults=...)``) consume plans; this module only describes
faults.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

__all__ = ["FaultKind", "FaultSpec", "FaultPlan", "SIM_KINDS", "THREAD_KINDS",
           "PAYLOAD_KINDS", "RESPAWN_KINDS"]


class FaultKind(str, enum.Enum):
    """What to break. Values double as the JSON ``kind`` field."""

    #: A simulated core dies permanently (its in-flight task is lost).
    CORE_CRASH = "core-crash"
    #: A simulated core freezes for ``param`` cycles (does no work).
    CORE_STALL = "core-stall"
    #: A simulated core runs ``param``× slower for one subframe period.
    CORE_SLOWDOWN = "core-slowdown"
    #: A worker thread exits mid-run (the silent-death path, made loud).
    WORKER_DEATH = "worker-death"
    #: A worker thread wedges for ``param`` seconds while holding a user.
    WORKER_HANG = "worker-hang"
    #: One user's task raises an exception (retryable).
    TASK_EXCEPTION = "task-exception"
    #: Bit flips in the received grid pre-CRC (decodes to a CRC failure).
    PAYLOAD_BITFLIP = "payload-bitflip"
    #: NaN/garbage soft bits injected into the received grid.
    PAYLOAD_NAN = "payload-nan"
    #: Work amplification: the subframe's load is multiplied so the
    #: admission controller must shed (exercises Eq. 1-4 based shedding).
    OVERLOAD = "overload"
    #: The target worker slot dies on its next ``param`` consecutive
    #: dispatches — each respawned replacement is killed again, which is
    #: what exercises supervised-respawn backoff (and, with ``param``
    #: past the restart budget, crash-loop detection).
    CRASH_LOOP = "crash-loop"
    #: Every worker slot (up to ``param`` distinct slots) dies once on
    #: its next dispatch — a correlated die-off that forces the
    #: supervisor to respawn the whole pool under one budget window.
    RESPAWN_STORM = "respawn-storm"


#: Kinds the discrete-event simulator backend can inject.
SIM_KINDS = frozenset(
    {
        FaultKind.CORE_CRASH,
        FaultKind.CORE_STALL,
        FaultKind.CORE_SLOWDOWN,
        FaultKind.OVERLOAD,
    }
)

#: Kinds the threaded runtime can inject.
THREAD_KINDS = frozenset(
    {
        FaultKind.WORKER_DEATH,
        FaultKind.WORKER_HANG,
        FaultKind.TASK_EXCEPTION,
    }
)

#: Kinds that corrupt subframe input data (any functional backend).
PAYLOAD_KINDS = frozenset({FaultKind.PAYLOAD_BITFLIP, FaultKind.PAYLOAD_NAN})

#: Kinds that only make sense against a supervised (respawning) pool —
#: they repeatedly kill worker slots, so a fail-stop runtime would just
#: abort on the first death.
RESPAWN_KINDS = frozenset({FaultKind.CRASH_LOOP, FaultKind.RESPAWN_STORM})


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``subframe`` is the dispatch index at which the fault arms;
    ``target`` is a core/worker index for machine faults or a user id for
    task/payload faults (-1 = first eligible); ``param`` is the
    kind-specific magnitude (stall cycles, slowdown factor, hang seconds,
    flipped-bit count, overload multiplier); ``seed`` feeds any per-fault
    randomness (e.g. which grid samples a bit flip hits) so corruption is
    itself replayable.
    """

    kind: FaultKind
    subframe: int
    target: int = -1
    param: float = 0.0
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "subframe": self.subframe,
            "target": self.target,
            "param": self.param,
            "seed": self.seed,
        }


#: Default magnitude per kind used by :meth:`FaultPlan.generate`.
_DEFAULT_PARAMS: dict[FaultKind, float] = {
    FaultKind.CORE_CRASH: 0.0,
    FaultKind.CORE_STALL: 200_000.0,  # cycles
    FaultKind.CORE_SLOWDOWN: 4.0,  # factor
    FaultKind.WORKER_DEATH: 0.0,
    FaultKind.WORKER_HANG: 2.0,  # seconds
    FaultKind.TASK_EXCEPTION: 0.0,
    FaultKind.PAYLOAD_BITFLIP: 24.0,  # flipped samples
    FaultKind.PAYLOAD_NAN: 8.0,  # poisoned samples
    FaultKind.OVERLOAD: 8.0,  # work multiplier
    FaultKind.CRASH_LOOP: 2.0,  # consecutive kills of one slot
    FaultKind.RESPAWN_STORM: 2.0,  # distinct slots killed once each
}


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, replayable set of planned faults.

    Plans are immutable; equality is structural, so
    ``FaultPlan.generate(seed=s, ...) == FaultPlan.generate(seed=s, ...)``.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    # ------------------------------------------------------------- builders
    @classmethod
    def generate(
        cls,
        seed: int,
        num_subframes: int,
        num_workers: int,
        kinds: tuple[FaultKind, ...] | None = None,
        faults_per_kind: int = 1,
    ) -> "FaultPlan":
        """Sample a plan deterministically from ``seed``.

        For each requested kind, ``faults_per_kind`` faults are placed at
        rng-chosen subframes/targets. Sampling happens here, once; the
        resulting plan carries no RNG state of its own.
        """
        if num_subframes < 1 or num_workers < 1:
            raise ValueError("num_subframes and num_workers must be >= 1")
        rng = random.Random(seed)
        chosen = kinds if kinds is not None else tuple(FaultKind)
        specs: list[FaultSpec] = []
        for kind in chosen:
            for _ in range(faults_per_kind):
                specs.append(
                    FaultSpec(
                        kind=kind,
                        subframe=rng.randrange(num_subframes),
                        target=rng.randrange(num_workers),
                        param=_DEFAULT_PARAMS[kind],
                        seed=rng.randrange(2**31),
                    )
                )
        specs.sort(key=lambda s: (s.subframe, s.kind.value, s.target))
        return cls(specs=tuple(specs), seed=seed)

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self.specs)

    def for_subframe(self, subframe_index: int) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.subframe == subframe_index)

    def of_kinds(self, kinds: frozenset[FaultKind]) -> "FaultPlan":
        """Sub-plan containing only ``kinds`` (same seed recorded)."""
        return FaultPlan(
            specs=tuple(s for s in self.specs if s.kind in kinds),
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        """Plain-data view for reports (``repro chaos --json``)."""
        return {
            "seed": self.seed,
            "specs": [s.to_dict() for s in self.specs],
        }
