"""Fault-plan adapters: payload corruption and threaded-runtime injection.

Two consumers of a :class:`~repro.faults.plan.FaultPlan` live here:

* :func:`corrupt_subframe` — applies the payload kinds (bit flips, NaN
  soft bits) to a :class:`~repro.uplink.subframe.SubframeInput`, returning
  a corrupted *copy*; the original grid is never mutated, so a corrupted
  run and its clean reference can share inputs.
* :class:`ThreadFaultInjector` — the threaded runtime's injection hook:
  the runtime asks it, at well-defined points, whether a planned fault
  fires for (worker, subframe, user). Each armed fault fires exactly once
  (consumption is tracked under a lock), which is what makes bounded
  retry deterministic: the retried attempt runs fault-free.

The simulator consumes plans directly (see ``MachineSimulator(faults=)``)
because its injection points live inside the event loop.
"""

from __future__ import annotations

import threading
from typing import ClassVar

import numpy as np

from ..uplink.subframe import SubframeInput
from .plan import PAYLOAD_KINDS, FaultKind, FaultPlan, FaultSpec

__all__ = [
    "InjectedFault",
    "InjectedTaskError",
    "InjectedWorkerDeath",
    "ThreadFaultInjector",
    "corrupt_subframe",
    "corrupt_subframes",
]


class InjectedFault(Exception):
    """Base class for all injected failures (never raised by real bugs)."""


class InjectedTaskError(InjectedFault):
    """A planned per-task exception (retryable)."""


class InjectedWorkerDeath(BaseException):
    """Kills a worker thread; derives from BaseException so ordinary
    ``except Exception`` recovery paths cannot accidentally swallow it —
    only the worker loop's dedicated handler catches it."""


# ------------------------------------------------------------- payload
def _corrupt_grid(grid: np.ndarray, spec: FaultSpec, user_slice) -> None:
    """Apply one payload fault to the (writable) grid in place."""
    rng = np.random.default_rng(spec.seed)
    view = user_slice.view(grid)  # basic-slicing view: writes reach the grid
    count = max(1, int(spec.param))
    positions = rng.choice(view.size, size=min(count, view.size), replace=False)
    # Index through unravel_index rather than reshape(-1): reshaping a
    # non-contiguous view silently copies, and the corruption would be lost.
    idx = np.unravel_index(positions, view.shape)
    if spec.kind is FaultKind.PAYLOAD_BITFLIP:
        # Sign-flip received samples: the frequency-domain equivalent of
        # hard bit corruption ahead of the CRC — decode proceeds, CRC fails.
        view[idx] = -view[idx]
    elif spec.kind is FaultKind.PAYLOAD_NAN:
        view[idx] = complex("nan")
    else:  # pragma: no cover - guarded by caller
        raise ValueError(f"{spec.kind} is not a payload fault")


def corrupt_subframe(subframe: SubframeInput, plan: FaultPlan) -> SubframeInput:
    """Return ``subframe`` with this index's payload faults applied.

    Non-payload kinds are ignored. When no fault targets this subframe the
    original object is returned unchanged (no copy).
    """
    specs = [
        s
        for s in plan.for_subframe(subframe.subframe_index)
        if s.kind in PAYLOAD_KINDS
    ]
    if not specs:
        return subframe
    grid = subframe.grid.copy()
    for spec in specs:
        eligible = [
            sl
            for sl in subframe.slices
            if spec.target < 0 or sl.user.user_id == spec.target
        ]
        target = eligible or subframe.slices[:1]
        if target:
            _corrupt_grid(grid, spec, target[0])
    return SubframeInput(
        subframe_index=subframe.subframe_index,
        grid=grid,
        slices=subframe.slices,
        expected_payloads=subframe.expected_payloads,
    )


def corrupt_subframes(
    subframes: list[SubframeInput], plan: FaultPlan
) -> list[SubframeInput]:
    """Apply :func:`corrupt_subframe` across a whole run's inputs."""
    return [corrupt_subframe(s, plan) for s in subframes]


# ------------------------------------------------------------- threaded
class ThreadFaultInjector:
    """Arms a plan's thread faults and answers the runtime's queries.

    The runtime polls from worker threads, so consumption state is
    lock-protected (``_GUARDED_BY`` is enforced by ``repro lint`` REP101).
    """

    _GUARDED_BY: ClassVar[dict[str, str]] = {
        "_armed": "lock",
        "_crash_loops": "lock",
        "_storms": "lock",
    }

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.lock = threading.Lock()
        self._armed: list[FaultSpec] = [
            s
            for s in plan.specs
            if s.kind
            in (
                FaultKind.WORKER_DEATH,
                FaultKind.WORKER_HANG,
                FaultKind.TASK_EXCEPTION,
            )
        ]
        # Multi-shot respawn kinds carry consumption state of their own:
        # a crash loop fires on param consecutive dispatches to its slot,
        # a respawn storm once per distinct slot (up to param slots).
        self._crash_loops: list[list] = [  # [spec, kills remaining]
            [s, max(1, int(s.param))]
            for s in plan.specs
            if s.kind is FaultKind.CRASH_LOOP
        ]
        self._storms: list[tuple[FaultSpec, set[int]]] = [
            (s, set())
            for s in plan.specs
            if s.kind is FaultKind.RESPAWN_STORM
        ]
        self.fired: list[FaultSpec] = []

    def _consume(
        self, kind: FaultKind, worker_id: int, subframe_index: int
    ) -> FaultSpec | None:
        """Pop the first armed fault matching (kind, worker, subframe).

        A spec arms at its planned subframe and stays armed until a
        matching dispatch reaches its target worker: thread interleaving
        may let the planned subframe slip past a busy worker, and a fault
        that never fires would silently weaken the campaign.
        """
        with self.lock:
            for spec in self._armed:
                if spec.kind is not kind:
                    continue
                if spec.target >= 0 and spec.target != worker_id:
                    continue
                if subframe_index < spec.subframe:
                    continue
                self._armed.remove(spec)
                self.fired.append(spec)
                return spec
        return None

    def _consume_respawn_kinds(
        self, worker_id: int, subframe_index: int
    ) -> bool:
        """Fire any armed crash-loop/respawn-storm kill for this dispatch."""
        with self.lock:
            for entry in self._crash_loops:
                spec, remaining = entry
                if spec.target >= 0 and spec.target != worker_id:
                    continue
                if subframe_index < spec.subframe:
                    continue
                entry[1] = remaining - 1
                if entry[1] <= 0:
                    self._crash_loops.remove(entry)
                self.fired.append(spec)
                return True
            for spec, hit in self._storms:
                if subframe_index < spec.subframe:
                    continue
                if worker_id in hit:
                    continue
                hit.add(worker_id)
                if len(hit) >= max(1, int(spec.param)):
                    self._storms.remove((spec, hit))
                self.fired.append(spec)
                return True
        return False

    # ---------------------------------------------------------- run queries
    def check_worker_death(self, worker_id: int, subframe_index: int) -> bool:
        """True when this worker must die while holding this subframe."""
        if (
            self._consume(FaultKind.WORKER_DEATH, worker_id, subframe_index)
            is not None
        ):
            return True
        return self._consume_respawn_kinds(worker_id, subframe_index)

    def check_worker_hang(
        self, worker_id: int, subframe_index: int
    ) -> float | None:
        """Seconds to wedge, or None."""
        spec = self._consume(FaultKind.WORKER_HANG, worker_id, subframe_index)
        return spec.param if spec is not None else None

    def check_task_exception(self, worker_id: int, subframe_index: int) -> bool:
        """True when this user's processing must raise (once)."""
        return (
            self._consume(FaultKind.TASK_EXCEPTION, worker_id, subframe_index)
            is not None
        )

    @property
    def pending(self) -> int:
        with self.lock:
            return len(self._armed) + len(self._crash_loops) + len(self._storms)
