"""The scheduler runtimes: one core contract, three transports.

:mod:`.core` defines what it means to run a subframe to a terminal state
(:class:`SubframeTracker` under the :class:`Runtime` base); the transports
are thread-based work stealing (the paper's Pthreads version, GIL-bound),
spawn-based multiprocess (true multi-core, shared-memory grids, optional
respawn of dead workers under :mod:`.supervisor`) and inline
(one thread, whole subframes, for the serial/vectorized backends).
:func:`make_runtime` is the one place a backend *name* becomes a runtime.
"""

from .core import Runtime, SubframeTracker, WorkerFailuresError
from .inline import InlineRuntime
from .multiprocess import MultiprocessRuntime, MultiprocessStats
from .policy import RandomVictimPolicy
from .queues import GlobalQueue, WorkStealingDeque
from .threaded import RuntimeStats, ThreadedRuntime

__all__ = [
    "RandomVictimPolicy",
    "GlobalQueue",
    "WorkStealingDeque",
    "RuntimeStats",
    "ThreadedRuntime",
    "MultiprocessRuntime",
    "MultiprocessStats",
    # The one runtime core (added with it, on purpose):
    "Runtime",
    "SubframeTracker",
    "WorkerFailuresError",
    "InlineRuntime",
    "make_runtime",
    "runtime_class",
]

_TRANSPORTS: dict[str, type[Runtime]] = {
    "serial": InlineRuntime,
    "vectorized": InlineRuntime,
    "threaded": ThreadedRuntime,
    "multiprocess": MultiprocessRuntime,
}


def runtime_class(backend: str) -> type[Runtime]:
    """The :class:`Runtime` subclass that executes ``backend``."""
    if backend not in _TRANSPORTS:
        raise ValueError(f"unknown backend {backend!r}")
    return _TRANSPORTS[backend]


def make_runtime(
    backend: str,
    num_workers: int = 2,
    processor=None,
    respawn: bool = False,
    **common,
) -> Runtime:
    """Build the runtime for ``backend``: ``num_workers`` goes to the pools,
    ``processor`` to the inline transport, ``respawn`` to the multiprocess
    pool, ``common`` (``observers``, ``faults``, ``resilience``,
    ``ledger``) to whichever it is."""
    cls = runtime_class(backend)
    if cls is InlineRuntime:
        common.update(backend=backend, processor=processor)
    else:
        common["num_workers"] = num_workers
    if cls is MultiprocessRuntime:
        common["respawn"] = respawn
    return cls(**common)
