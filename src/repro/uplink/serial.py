"""Serial reference implementation of the benchmark (Section IV-A).

"We implemented the serial version as a reference to verify parallelized
versions of the benchmark." The serial benchmark processes each dispatched
subframe's users one at a time, in order, with
:func:`repro.phy.chain.process_user`, recording every result so parallel
runs can be compared bit-for-bit (Section IV-D). It shares the chain's
stage functions with the threaded runtime's ``UserJob`` closures but none
of their buffers or stage ordering, so it checks them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..phy.chain import UserResult, process_user
from .parameter_model import ParameterModel
from .subframe import SubframeFactory, SubframeInput

__all__ = [
    "FUNCTIONAL_BACKENDS",
    "SubframeResult",
    "SerialBenchmark",
    "process_subframe",
    "process_subframe_serial",
]

#: Single-thread functional backends selectable via ``backend=``: the
#: per-task serial reference and the batched vectorized fast path
#: (``repro.uplink.vectorized``). The threaded runtime lives in
#: ``repro.sched`` and is selected through ``make_runtime`` or the CLI.
FUNCTIONAL_BACKENDS = ("serial", "vectorized")


@dataclass
class SubframeResult:
    """All users' decoded results for one subframe.

    ``aborted_user_ids`` lists users the resilience layer gave up on
    (retry budget exhausted or subframe deadline-aborted); it is empty on
    every fault-free path and is deliberately *not* part of :meth:`equals`,
    which compares the decoded payloads that were produced.
    """

    subframe_index: int
    user_results: list[UserResult] = field(default_factory=list)
    aborted_user_ids: list[int] = field(default_factory=list)

    def equals(self, other: "SubframeResult") -> bool:
        """Bit-exact comparison against another run of the same subframe."""
        if self.subframe_index != other.subframe_index:
            return False
        if len(self.user_results) != len(other.user_results):
            return False
        mine = sorted(self.user_results, key=lambda r: r.user_id)
        theirs = sorted(other.user_results, key=lambda r: r.user_id)
        return all(a.equals(b) for a, b in zip(mine, theirs))


def process_subframe_serial(subframe: SubframeInput) -> SubframeResult:
    """Process one subframe's users sequentially on the calling thread:
    :func:`~repro.phy.chain.process_user` on each slice, in slice order."""
    return SubframeResult(
        subframe_index=subframe.subframe_index,
        user_results=[
            process_user(
                user_slice.user.allocation,
                user_slice.view(subframe.grid),
                user_id=user_slice.user.user_id,
            )
            for user_slice in subframe.slices
        ],
    )


def process_subframe(
    subframe: SubframeInput, backend: str = "serial"
) -> SubframeResult:
    """One subframe on the selected single-thread backend:
    :func:`repro.uplink.vectorized.process_subframes` over a list of one
    (``"serial"``: the per-task reference chain; ``"vectorized"``: the
    batched fast path, bit-exact with the reference)."""
    from .vectorized import process_subframes  # it imports this module

    return process_subframes([subframe], backend)[0]


class SerialBenchmark:
    """Drives the serial version over a parameter model.

    Parameters
    ----------
    model:
        Source of per-subframe user parameters.
    factory:
        Source of input data (pool mode by default, per the paper).
    synthesize:
        When True, build physically meaningful input (CRCs pass) instead of
        reusing the pre-generated pool.
    backend:
        ``"serial"`` (the per-task reference, default) or ``"vectorized"``
        (the batched fast path; bit-exact with the reference).
    """

    def __init__(
        self,
        model: ParameterModel,
        factory: SubframeFactory | None = None,
        synthesize: bool = False,
        backend: str = "serial",
    ) -> None:
        if backend not in FUNCTIONAL_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (choose from {FUNCTIONAL_BACKENDS})"
            )
        self.model = model
        self.factory = factory or SubframeFactory()
        self.synthesize = synthesize
        self.backend = backend

    def build_subframe(self, subframe_index: int) -> SubframeInput:
        users = self.model.uplink_parameters(subframe_index)
        if self.synthesize:
            return self.factory.synthesize(users, subframe_index)
        return self.factory.from_pool(users, subframe_index)

    def run(self, num_subframes: int, start: int = 0) -> list[SubframeResult]:
        """Process ``num_subframes`` consecutive subframes; returns results."""
        if num_subframes < 1:
            raise ValueError("num_subframes must be >= 1")
        return [
            process_subframe(self.build_subframe(index), self.backend)
            for index in range(start, start + num_subframes)
        ]
