"""Crash-safe serve checkpoints (``repro-ckpt/1``) and resume validation.

A checkpoint is a consistent cut of a streaming serve run: for every
cell, the terminal state of each *resolved* local tick plus the user
counters folded at those terminals (:meth:`CellShard.checkpoint_record`),
the merged telemetry sketches, and the accumulated wall clock. Nothing
about in-flight subframes is stored — a killed run simply re-dispatches
the unresolved ticks on resume, so every subframe still reaches exactly
one terminal state across segments (the differential test compares the
kill-and-resume per-subframe state map against an uninterrupted run).

Arrival "RNG state" needs no snapshotting: the arrival processes are
stateless random-access generators keyed ``(seed, stream_id, tick)``
(see :mod:`repro.serve.arrivals`), so the resumed segment re-draws
byte-identical user lists for the remaining ticks as long as the serve
*configuration signature* matches — which :func:`validate_checkpoint`
enforces before any state is adopted.

Snapshots are written atomically (tmp + fsync + rename via
:mod:`repro.ioutil`): a crash mid-write leaves the previous checkpoint
intact, never a torn file.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import Any

from ..ioutil import atomic_write_json

__all__ = [
    "CKPT_SCHEMA",
    "build_checkpoint",
    "config_signature",
    "load_checkpoint",
    "validate_checkpoint",
    "write_checkpoint",
]

CKPT_SCHEMA = "repro-ckpt/1"


def config_signature(config: Any) -> dict:
    """The resume-compatibility signature of a ServeConfig.

    The fields its declaration marks ``signature``: together they
    determine the arrival draws, subframe synthesis, admission decisions
    and id space, so they must match between the checkpointing run and
    the resuming run. Anything else (trace paths, checkpoint cadence,
    wall guards) may differ.
    """
    return {
        f.name: getattr(config, f.name)
        for f in fields(config)
        if f.metadata.get("signature")
    }


def build_checkpoint(
    config: Any,
    cells: list[Any],
    telemetry: dict | None,
    wall_s: float,
    segments: int,
    completed: bool,
) -> dict:
    """Assemble one ``repro-ckpt/1`` snapshot (plain data)."""
    return {
        "schema": CKPT_SCHEMA,
        "signature": config_signature(config),
        "segments": segments,
        "completed": completed,
        "wall_s": wall_s,
        "cells": [cell.checkpoint_record() for cell in cells],
        "telemetry": telemetry,
    }


def write_checkpoint(path: str | Path, snapshot: dict) -> Path:
    """Atomically persist a snapshot built by :func:`build_checkpoint`."""
    return atomic_write_json(path, snapshot, indent=None, sort_keys=True)


def load_checkpoint(path: str | Path) -> dict:
    """Parse a snapshot file; rejects non-``repro-ckpt/1`` payloads.

    A torn or truncated file cannot occur through
    :func:`write_checkpoint` (tmp + rename), but a user can hand
    ``--resume`` any path — fail with the schema name rather than a
    ``KeyError`` three layers deeper, and with a ``ValueError`` (the CLI's
    exit 2) rather than a traceback when the file cannot be read at all.
    """
    import json

    try:
        snapshot = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"checkpoint {path} is not valid JSON: {exc}")
    if not isinstance(snapshot, dict) or snapshot.get("schema") != CKPT_SCHEMA:
        kind = (
            snapshot.get("schema") if isinstance(snapshot, dict) else snapshot
        )
        raise ValueError(
            f"checkpoint {path} has schema {kind!r}, expected {CKPT_SCHEMA!r}"
        )
    return snapshot


def validate_checkpoint(snapshot: dict, config: Any) -> list[str]:
    """Schema + signature check; returns problems (empty = resumable)."""
    problems: list[str] = []
    if snapshot.get("schema") != CKPT_SCHEMA:
        problems.append(
            f"checkpoint schema {snapshot.get('schema')!r} != {CKPT_SCHEMA!r}"
        )
        return problems
    signature = snapshot.get("signature")
    if not isinstance(signature, dict):
        problems.append("checkpoint has no config signature")
        return problems
    for name, current in config_signature(config).items():
        if signature.get(name) != current:
            problems.append(
                f"config mismatch on {name!r}: checkpoint "
                f"{signature.get(name)!r} != current {current!r}"
            )
    records = snapshot.get("cells")
    if not isinstance(records, list):
        problems.append("checkpoint has no cell records")
    else:
        if len(records) != config.cells:
            problems.append(
                f"checkpoint covers {len(records)} cell(s), "
                f"config has {config.cells}"
            )
        for record in records:
            if not isinstance(record, dict) or "states" not in record:
                problems.append("malformed cell record in checkpoint")
                break
    return problems
