"""Streaming base-station service mode (``repro serve``).

The batch drivers answer "how fast can the receiver chew through N
subframes"; this package answers the operational question the paper's
DELTA cadence poses: does the receiver *keep up* when subframes arrive
every 5 ms across many cells, and does overload degrade into shedding
instead of deadline collapse? See ``docs/serving.md``.

* :mod:`repro.serve.config` — :class:`ServeConfig`, every ``repro serve``
  option, importable from the standard library alone;
* :mod:`repro.serve.arrivals` — seeded offered-load processes
  (constant-rate, Poisson, diurnal, mMTC synchronized bursts);
* :mod:`repro.serve.cell` — per-cell shards: arrival stream, Eq. 3-4
  admission, bounded queue, and an execution backend;
* :mod:`repro.serve.loop` — the asyncio ingest loop, backpressure, and
  ledger-first accounting;
* :mod:`repro.serve.report` — the one ``repro-serve/2`` record: declared,
  validated and loaded there, it is the run's report and its checkpoint
  (every ``--checkpoint-every`` cut and the exit write it; ``--resume``
  reads any of them);
* :mod:`repro.serve.overload` — SLO-driven adaptive admission (AIMD
  with hysteresis, ``--adaptive``).

``--respawn`` attaches :class:`repro.sched.supervisor.WorkerSupervisor`,
the multiprocess pool's bounded worker respawn (``docs/robustness.md``).

Names resolve on first use (:pep:`562`): importing the package imports
no submodule, so ``repro.cli`` reads :class:`ServeConfig` without NumPy.
"""

from __future__ import annotations

import importlib
from typing import Any

#: The submodule each public name lives in.
_HOMES = {
    "config": ("ARRIVAL_KINDS", "SERVE_BACKENDS", "ServeConfig"),
    "arrivals": (
        "DiurnalArrivals",
        "MmtcBurstArrivals",
        "PoissonArrivals",
        "make_arrivals",
    ),
    "cell": ("CELL_STRIDE", "CellShard", "offset_plan"),
    "loop": ("ServeResult", "serve"),
    "overload": ("AimdController", "OverloadController"),
    "report": (
        "ServeReport",
        "load_checkpoint",
        "validate_checkpoint",
        "validate_serve_report",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> Any:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
