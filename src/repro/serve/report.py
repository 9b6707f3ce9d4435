"""The ``repro-serve/2`` record: one serve run's report *and* checkpoint.

``repro serve`` writes one record. The loop builds it at every
``--checkpoint-every`` cut as a :class:`ServeCut` (what a resume needs and
what the loop thread owns) and once at exit as a :class:`ServeReport` (the
cut plus what only the end of a run can say). The final record is the
report ``--json`` prints, and any record — a periodic cut, the final
checkpoint, a ``--json-out`` report — is a valid ``--resume`` input.

The declarations below are the only key list: the builder in
:mod:`repro.serve.loop` is annotated with them and
:func:`validate_serve_report` walks them. ``dispatched`` and
``terminal_counts`` are derived from ``terminal_states``, so they agree by
construction; what a file read from disk can still get wrong is checked.

Arrival "RNG state" needs no snapshot: the arrival processes are stateless
random-access generators keyed ``(seed, stream_id, tick)``, so a resumed
segment re-draws the remaining ticks byte-identically as long as the config
fields marked ``signature`` match, which :func:`validate_checkpoint`
enforces. Nothing about in-flight subframes is stored: a resumed run
re-dispatches every tick without a terminal state.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import fields
from pathlib import Path
from typing import (
    Any,
    TypedDict,
    cast,
    get_args,
    get_origin,
    get_type_hints,
    is_typeddict,
)

from ..faults.accounting import TerminalState

__all__ = [
    "CellRow",
    "ServeCut",
    "ServeReport",
    "UserCounters",
    "load_checkpoint",
    "validate_checkpoint",
    "validate_serve_report",
]

SCHEMA = "repro-serve/2"

_STATES = sorted(state.value for state in TerminalState)


class UserCounters(TypedDict):
    """User totals over *resolved* subframes, per cell and fleet-wide
    (:meth:`CellShard.note_terminal` is the only writer)."""

    offered_users: int
    admitted_users: int
    shed_users: int
    served_users: int
    crc_ok_users: int
    backpressure_hits: int


class CellRow(UserCounters):
    """One cell's row: its counters and its queue over the run."""

    cell: int
    dispatched: int
    terminal_counts: dict[str, int]
    max_queue_depth: int
    last_tick: int | None
    monotone_ids: bool


class CheckpointSection(TypedDict):
    segments: int
    #: Periodic cuts this segment wrote before this record.
    writes: int
    #: Cuts whose telemetry shard an observer thread raced.
    telemetry_misses: int
    completed: bool


class ServeCut(UserCounters):
    """What every record carries: a resume reads these."""

    schema: str
    #: Every ``repro serve`` option of the run, by field name.
    config: dict[str, Any]
    wall_s: float
    dispatched: int
    terminal_counts: dict[str, int]
    throughput_sf_per_s: float
    users_per_hour: float
    per_cell: list[CellRow]
    #: Global subframe id -> terminal state, every resolved subframe.
    terminal_states: dict[str, str]
    #: Mergeable sketches + counters; None when the cut raced twice.
    telemetry: dict[str, Any] | None
    adaptive: dict[str, Any] | None
    supervisor: dict[str, Any] | None
    checkpoint: CheckpointSection
    max_wall_hit: bool


class FaultsSection(TypedDict):
    shedding_engaged: bool
    faults_seen: int


class ServeReport(ServeCut):
    """The final record: the cut plus what only the end of a run knows."""

    ledger_ok: bool
    arrival_lag: dict[str, Any]
    queue_depth_series: list[Any]
    faults: FaultsSection
    slo: dict[str, Any]
    errors: list[str]


def sum_counters(rows: Iterable[Mapping[str, Any]]) -> UserCounters:
    """The user counters of ``rows`` added up (all zero for no row)."""
    rows = list(rows)
    names = UserCounters.__annotations__
    return cast(
        UserCounters, {name: sum(int(row[name]) for row in rows) for name in names}
    )


def terminal_counts(states: Iterable[str]) -> dict[str, int]:
    """Subframes per terminal state, every state present, sorted."""
    counts = Counter(states)
    return {state: counts[state] for state in _STATES}


def _problems(value: Any, hint: Any, where: str) -> list[str]:
    """How ``value`` departs from the declared type ``hint``."""
    args = get_args(hint)
    if type(None) in args:  # ``X | None``
        return [] if value is None else _problems(value, args[0], where)
    kind = dict if is_typeddict(hint) else get_origin(hint) or hint
    numeric = (int, float) if kind is float else kind
    if not isinstance(value, numeric) or (
        isinstance(value, bool) and kind is not bool
    ):
        name = type(value).__name__
        return [f"field {where!r} is {name}, expected {kind.__name__}"]
    if is_typeddict(hint):
        out: list[str] = []
        for key, sub in get_type_hints(hint).items():
            path = f"{where}.{key}" if where else key
            if key in value:
                out += _problems(value[key], sub, path)
            else:
                out.append(f"missing field {path!r}")
        return out
    if kind is list and is_typeddict(args[0]):
        return [
            p
            for i, item in enumerate(value)
            for p in _problems(item, args[0], f"{where}[{i}]")
        ]
    return []


def validate_serve_report(report: Any) -> list[str]:
    """Violations of the :class:`ServeReport` declaration (empty = valid)."""
    problems = _problems(report, ServeReport, "")
    if problems:
        return problems
    if report["schema"] != SCHEMA:
        problems.append(f"unknown schema {report['schema']!r}")
    if report["offered_users"] < report["admitted_users"]:
        problems.append("admitted_users exceeds offered_users")
    if report["served_users"] < report["crc_ok_users"]:
        problems.append("crc_ok_users exceeds served_users")
    if len(report["terminal_states"]) != report["dispatched"]:
        problems.append(
            f"terminal_states has {len(report['terminal_states'])} entries "
            f"for {report['dispatched']} dispatched"
        )
    return problems


def load_checkpoint(path: str | Path) -> dict[str, Any]:
    """Read a record to resume from.

    A user can hand ``--resume`` any path: an unreadable file, bad JSON or
    another schema is a ``ValueError`` (the CLI's exit 2) naming the file,
    not a ``KeyError`` three layers deeper.
    """
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    schema = record.get("schema") if isinstance(record, dict) else record
    if schema != SCHEMA:
        raise ValueError(
            f"checkpoint {path} has schema {schema!r}, expected {SCHEMA!r}"
        )
    return record


def validate_checkpoint(record: dict[str, Any], config: Any) -> list[str]:
    """Why ``config`` cannot resume ``record`` (empty = resumable): a field
    its declaration marks ``signature`` differs, the cells do not fit, or a
    part a resume reads departs from :class:`ServeCut`."""
    saved = record.get("config")
    if not isinstance(saved, dict):
        return ["checkpoint has no config"]
    problems = [
        f"config mismatch on {f.name!r}: checkpoint {saved.get(f.name)!r} "
        f"!= current {getattr(config, f.name)!r}"
        for f in fields(config)
        if f.metadata.get("signature")
        and saved.get(f.name) != getattr(config, f.name)
    ]
    rows = record.get("per_cell")
    if not isinstance(rows, list) or len(rows) != config.cells:
        problems.append(
            f"checkpoint does not cover the config's {config.cells} cell(s)"
        )
    else:
        for i, row in enumerate(rows):
            problems += _problems(row, UserCounters, f"per_cell[{i}]")
    hints = get_type_hints(ServeCut)
    for key in ("wall_s", "terminal_states", "telemetry", "checkpoint"):
        problems += _problems(record.get(key), hints[key], key)
    return problems
