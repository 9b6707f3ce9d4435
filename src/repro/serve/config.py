"""``repro serve``'s options: :class:`ServeConfig` and the names its
choices read.

The standard library alone is imported here, so ``repro.cli`` builds
every sub-parser without loading NumPy or the serve runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

__all__ = [
    "ARRIVAL_KINDS",
    "BACKPRESSURE_POLICIES",
    "SERVE_BACKENDS",
    "ServeConfig",
]

#: Arrival-process names accepted by
#: :func:`~repro.serve.arrivals.make_arrivals` (and ``--arrival``).
ARRIVAL_KINDS = ("constant", "poisson", "diurnal", "mmtc")

#: Execution backends a serve cell can shard onto.
SERVE_BACKENDS = ("serial", "vectorized", "threaded", "multiprocess")

#: Backpressure policies when a cell's in-flight queue is full.
BACKPRESSURE_POLICIES = ("shed", "block")

def _flag(
    default: Any,
    flag: str,
    help: str,
    *,
    signature: bool = True,
    arrival: bool = False,
    **parser: Any,
) -> Any:
    """A :class:`ServeConfig` field that ``repro serve`` exposes as ``flag``.

    The field is the option's only declaration: ``repro.cli`` builds the
    ``serve`` sub-parser and the config from this metadata (a ``bool``
    field is a switch that toggles its default, so ``--no-pace`` clears
    ``pace``; any other field parses as its default's type, and ``parser``
    carries ``choices`` / ``metavar`` / ``type``), and the run's record
    echoes it under ``config``. A ``signature`` field must match between a
    record and the run that resumes it
    (:func:`repro.serve.report.validate_checkpoint`): every option is one
    unless it only changes how the run is paced, healed, observed or
    persisted. ``arrival`` fields are passed by name to
    :func:`~repro.serve.arrivals.make_arrivals`.
    """
    metadata = dict(
        flag=flag, help=help, signature=signature, arrival=arrival, parser=parser
    )
    return field(default=default, metadata=metadata)


@dataclass
class ServeConfig:
    """One serve run's shape: every ``repro serve`` option, in ``--help``
    order, then the two hooks only callers in code set."""

    cells: int = _flag(4, "--cells", "number of cells (default 4)")
    subframes: int = _flag(
        200, "--subframes", "ticks (subframe slots) per cell (default 200)"
    )
    delta_s: float = _flag(
        0.005,
        "--delta",
        "arrival cadence per cell (default 0.005 = the paper's DELTA)",
        metavar="SECONDS",
    )
    arrival: str = _flag(
        "constant",
        "--arrival",
        "offered-load process (default constant)",
        choices=ARRIVAL_KINDS,
    )
    rate: float = _flag(
        4.0,
        "--rate",
        "mean offered users/subframe (poisson; mmtc base rate)",
        arrival=True,
    )
    daily_users: float = _flag(
        50_000.0,
        "--daily-users",
        "total daily users for --arrival diurnal (default 50000)",
        arrival=True,
    )
    subframes_per_hour: int = _flag(
        100,
        "--subframes-per-hour",
        "diurnal time compression: ticks per simulated hour",
        arrival=True,
    )
    burst_size: float = _flag(
        60.0,
        "--burst-size",
        "mMTC mean users per synchronized burst window",
        arrival=True,
    )
    burst_period: int = _flag(
        100, "--burst-period", "mMTC burst period in ticks (default 100)", arrival=True
    )
    burst_window: int = _flag(
        10,
        "--burst-window",
        "mMTC burst window length in ticks (default 10)",
        arrival=True,
    )
    mix: str = _flag(
        "mmtc",
        "--mix",
        "device mix for random arrivals (default mmtc: 2-PRB QPSK)",
        arrival=True,
        choices=("mmtc", "mixed"),
    )
    max_users: int = _flag(
        4,
        "--users",
        "cap on users per subframe of --arrival constant (the randomized "
        "model's MAX_USERS); other arrivals ignore it (default 4, matches "
        "repro run)",
        arrival=True,
    )
    backend: str = _flag(
        "vectorized",
        "--backend",
        "per-cell execution backend (default vectorized)",
        choices=SERVE_BACKENDS,
    )
    workers: int = _flag(
        2, "--workers", "workers per cell shard (threaded/multiprocess)"
    )
    queue_depth: int = _flag(
        8, "--queue-depth", "bounded in-flight subframes per cell (default 8)"
    )
    backpressure: str = _flag(
        "shed",
        "--backpressure",
        "policy at full queue: shed the subframe or block the producer (default shed)",
        choices=BACKPRESSURE_POLICIES,
    )
    pace: bool = _flag(
        True,
        "--no-pace",
        "disable DELTA pacing: offer arrivals as fast as possible (flood test)",
        signature=False,
    )
    synthesize: bool = _flag(
        False,
        "--synthesize",
        "synthesize IQ grids per subframe (CRCs pass; slower) "
        "instead of the paper's pre-generated pool",
    )
    max_activity: float = _flag(
        0.9, "--max-activity", "admission budget: Eq. 4 activity ceiling (default 0.9)"
    )
    seed: int = _flag(0, "--seed", "workload seed")
    faults: bool = _flag(
        False,
        "--faults",
        "chaos variant: inject worker deaths, task exceptions, and "
        "overload windows; the run must degrade via shedding",
    )
    respawn: bool = _flag(
        False,
        "--respawn",
        "supervised worker respawn (multiprocess backend): heal worker deaths "
        "under a bounded restart budget instead of aborting the shard",
        signature=False,
    )
    adaptive: bool = _flag(
        False,
        "--adaptive",
        "SLO-driven adaptive admission: AIMD load shedding with "
        "hysteresis driven by the burn-rate engine",
        signature=False,
    )
    checkpoint_path: str | None = _flag(
        None,
        "--checkpoint",
        "write the repro-serve/2 record to FILE at every cut and at exit "
        "(atomic tmp+fsync+rename)",
        signature=False,
        metavar="FILE",
    )
    checkpoint_every_s: float = _flag(
        1.0,
        "--checkpoint-every",
        "seconds between periodic checkpoint cuts (default 1.0)",
        signature=False,
        metavar="SECONDS",
    )
    resume_path: str | None = _flag(
        None,
        "--resume",
        "resume from any repro-serve/2 record: a checkpoint or a --json-out "
        "report (config signature must match; resolved subframes are not re-run)",
        signature=False,
        metavar="FILE",
    )
    max_wall_s: float | None = _flag(
        None,
        "--max-wall",
        "wall-clock guard: stop producing after SECONDS, drain, and "
        "exit 124 (the report resumes with --resume)",
        signature=False,
        type=float,
        metavar="SECONDS",
    )
    trace_path: str | None = _flag(
        None,
        "--trace",
        "write a line-flushed JSONL event trace (tail it live with "
        "'repro top --from FILE --follow')",
        signature=False,
        metavar="FILE",
    )
    #: Keep per-subframe results (differential tests; the CLI turns it
    #: off, a long run would hold every decoded payload).
    keep_results: bool = True
    #: Optional processor override (``SubframeInput -> SubframeResult``)
    #: for serial/vectorized cells — ``perf/`` and the tests inject a
    #: stage-timed processor here to attribute per-kernel wall clock.
    processor: Any = None

    def validate(self) -> None:
        if self.cells < 1:
            raise ValueError("cells must be >= 1")
        if self.subframes < 1:
            raise ValueError("subframes must be >= 1")
        if self.delta_s <= 0:
            raise ValueError("delta_s must be positive")
        for f in fields(self):
            value = getattr(self, f.name)
            choices = f.metadata.get("parser", {}).get("choices")
            if choices and value not in choices:
                raise ValueError(f"unknown {f.name} {value!r} (choose from {choices})")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.max_users < 1:
            raise ValueError("max_users must be >= 1")
        if self.respawn and self.backend != "multiprocess":
            raise ValueError("respawn requires the multiprocess backend")
        if self.checkpoint_every_s <= 0:
            raise ValueError("checkpoint_every_s must be positive")
        if self.max_wall_s is not None and self.max_wall_s <= 0:
            raise ValueError("max_wall_s must be positive")
