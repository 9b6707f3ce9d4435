"""Streaming base-station service mode (``repro serve``).

The batch drivers answer "how fast can the receiver chew through N
subframes"; this package answers the operational question the paper's
DELTA cadence poses: does the receiver *keep up* when subframes arrive
every 5 ms across many cells, and does overload degrade into shedding
instead of deadline collapse? See ``docs/serving.md``.

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
  with hysteresis, ``--adaptive``);
* :mod:`repro.serve.supervisor` — bounded worker-respawn policy for the
  multiprocess backend (``--respawn``, see ``docs/robustness.md``).
"""

from .arrivals import (
    ARRIVAL_KINDS,
    ConstantRateArrivals,
    DiurnalArrivals,
    MmtcBurstArrivals,
    PoissonArrivals,
    make_arrivals,
)
from .cell import CELL_STRIDE, CellShard, offset_plan
from .loop import (
    SERVE_BACKENDS,
    ServeConfig,
    ServeResult,
    serve,
)
from .overload import AimdController, OverloadController
from .report import (
    ServeReport,
    load_checkpoint,
    validate_checkpoint,
    validate_serve_report,
)
from .supervisor import RespawnPolicy, WorkerSupervisor

__all__ = [
    "AimdController",
    "ARRIVAL_KINDS",
    "CELL_STRIDE",
    "CellShard",
    "ConstantRateArrivals",
    "DiurnalArrivals",
    "MmtcBurstArrivals",
    "OverloadController",
    "PoissonArrivals",
    "RespawnPolicy",
    "SERVE_BACKENDS",
    "ServeConfig",
    "ServeReport",
    "ServeResult",
    "WorkerSupervisor",
    "load_checkpoint",
    "make_arrivals",
    "offset_plan",
    "serve",
    "validate_checkpoint",
    "validate_serve_report",
]
