"""Top-level benchmark driver: the maintenance thread's dispatch loop.

Section IV-B: "the maintenance thread enters a loop in which input data
and parameters for a subframe are created and dispatched every DELTA
milliseconds (where DELTA is configurable)". This driver paces dispatch
in real time over the threaded runtime — the functional twin of the
paper's default benchmark binary. (The timing-accurate counterpart is
``repro.sim.MachineSimulator``, which paces dispatch in simulated time.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .parameter_model import ParameterModel
from .serial import SubframeResult
from .subframe import SubframeFactory

__all__ = ["DRIVER_BACKENDS", "BenchmarkConfig", "BenchmarkDriver"]

#: Execution backends the driver can dispatch onto: the work-stealing
#: thread runtime (the paper's Pthreads twin), the per-task serial
#: reference, and the batched vectorized fast path.
DRIVER_BACKENDS = ("threaded", "serial", "vectorized")


@dataclass(frozen=True)
class BenchmarkConfig:
    """Driver knobs.

    ``delta_s`` is the paper's DELTA — the dispatch interval. It is
    configurable precisely because "this allows the benchmark to run on
    hardware that cannot sustain a rate of one subframe per millisecond".
    ``backend`` selects the :func:`~repro.sched.make_runtime`
    transport dispatched subframes execute on: ``"threaded"`` (default) is
    the work-stealing runtime; ``"serial"`` and ``"vectorized"`` run each
    subframe whole on one thread (the vectorized path runs the batched
    kernels of ``repro.phy.batched``).
    """

    delta_s: float = 5e-3
    num_workers: int = 4
    synthesize: bool = False
    backend: str = "threaded"

    def __post_init__(self) -> None:
        if self.delta_s <= 0:
            raise ValueError("delta_s must be positive")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.backend not in DRIVER_BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r} (choose from {DRIVER_BACKENDS})"
            )


class BenchmarkDriver:
    """Runs the benchmark: timed dispatch onto the work-stealing runtime."""

    def __init__(
        self,
        model: ParameterModel,
        factory: SubframeFactory | None = None,
        config: BenchmarkConfig | None = None,
    ) -> None:
        self.model = model
        self.factory = factory or SubframeFactory()
        self.config = config or BenchmarkConfig()

    def _build(self, index: int):
        users = self.model.uplink_parameters(index)
        if self.config.synthesize:
            return self.factory.synthesize(users, index)
        return self.factory.from_pool(users, index)

    def run(self, num_subframes: int, start: int = 0) -> list[SubframeResult]:
        """Dispatch ``num_subframes`` subframes every DELTA; return results.

        Subframe inputs are prepared ahead of the deadline (the paper
        pre-generates input data at initialization for the same reason),
        so the dispatch loop only enqueues.
        """
        if num_subframes < 1:
            raise ValueError("num_subframes must be >= 1")
        subframes = [self._build(start + i) for i in range(num_subframes)]
        # Imported here: repro.sched depends on repro.uplink's task graph,
        # so a module-level import would be circular.
        from ..sched import make_runtime

        # Every backend is a runtime: the work-stealing threads, or one
        # thread running the serial reference / batched vectorized path —
        # paced at DELTA alike, so deadline behaviour is comparable.
        runtime = make_runtime(
            self.config.backend, num_workers=self.config.num_workers
        )
        runtime.start()
        try:
            epoch = time.monotonic()
            for i, subframe in enumerate(subframes):
                deadline = epoch + i * self.config.delta_s
                delay = deadline - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                runtime.submit(subframe)
            runtime.drain()
        finally:
            runtime.close()
        return runtime.collect_results()
