"""Schema validation for the ``repro-serve/1`` report.

``repro serve --json`` emits one report per run; CI's serve-smoke job
and the soak tests validate it with :func:`validate_serve_report`
rather than spot-checking ad-hoc keys, so schema drift fails loudly in
one place. Validation is dependency-free (no jsonschema): a flat
required-key/type table plus the cross-field accounting identities the
ledger guarantees (``dispatched == sum(terminal_counts)``,
``offered == admitted + shed`` per run).
"""

from __future__ import annotations

from typing import Any

from ..faults.accounting import TerminalState

__all__ = ["SERVE_SCHEMA", "validate_serve_report"]

#: Required top-level report fields and their accepted types.
SERVE_SCHEMA: dict[str, tuple[type, ...]] = {
    "schema": (str,),
    "seed": (int,),
    "cells": (int,),
    "subframes_per_cell": (int,),
    "delta_s": (float, int),
    "arrival": (str,),
    "backend": (str,),
    "workers": (int,),
    "paced": (bool,),
    "backpressure": (str,),
    "queue_depth": (int,),
    "wall_s": (float, int),
    "dispatched": (int,),
    "terminal_counts": (dict,),
    "ledger_ok": (bool,),
    "offered_users": (int,),
    "admitted_users": (int,),
    "shed_users": (int,),
    "backpressure_hits": (int,),
    "served_users": (int,),
    "crc_ok_users": (int,),
    "throughput_sf_per_s": (float, int),
    "users_per_hour": (float, int),
    "arrival_lag": (dict,),
    "queue_depth_series": (list,),
    "per_cell": (list,),
    "faults": (dict,),
    "adaptive": (dict,),
    "supervisor": (dict,),
    "checkpoint": (dict,),
    "max_wall": (dict,),
    "slo": (dict,),
    "errors": (list,),
}

#: Required per-cell summary fields.
_CELL_FIELDS = (
    "cell",
    "backend",
    "dispatched",
    "terminal_counts",
    "offered_users",
    "admitted_users",
    "shed_users",
    "served_users",
    "crc_ok_users",
    "backpressure_hits",
    "max_queue_depth",
    "monotone_ids",
    "arrivals",
)


def validate_serve_report(report: Any) -> list[str]:
    """Return a list of schema violations (empty = valid)."""
    problems: list[str] = []
    if not isinstance(report, dict):
        return [f"report is {type(report).__name__}, expected dict"]
    for key, types in SERVE_SCHEMA.items():
        if key not in report:
            problems.append(f"missing field {key!r}")
        elif not isinstance(report[key], types):
            problems.append(
                f"field {key!r} is {type(report[key]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    if problems:
        return problems
    if report["schema"] != "repro-serve/1":
        problems.append(f"unknown schema {report['schema']!r}")
    counts = report["terminal_counts"]
    expected = sorted(state.value for state in TerminalState)
    if sorted(counts) != expected:
        problems.append(f"terminal_counts keys {sorted(counts)} != {expected}")
    elif report["dispatched"] != sum(counts.values()):
        problems.append(
            f"dispatched {report['dispatched']} != terminal sum "
            f"{sum(counts.values())}"
        )
    if report["offered_users"] < report["admitted_users"]:
        problems.append("admitted_users exceeds offered_users")
    if report["served_users"] < report["crc_ok_users"]:
        problems.append("crc_ok_users exceeds served_users")
    if len(report["per_cell"]) != report["cells"]:
        problems.append(
            f"per_cell has {len(report['per_cell'])} entries for "
            f"{report['cells']} cells"
        )
    for i, cell in enumerate(report["per_cell"]):
        if not isinstance(cell, dict):
            problems.append(f"per_cell[{i}] is not a dict")
            continue
        for field in _CELL_FIELDS:
            if field not in cell:
                problems.append(f"per_cell[{i}] missing {field!r}")
    slo = report["slo"]
    if slo.get("schema") != "repro-slo/1":
        problems.append(f"slo schema {slo.get('schema')!r} != 'repro-slo/1'")
    faults = report["faults"]
    for field in ("enabled", "shedding_engaged"):
        if field not in faults:
            problems.append(f"faults missing {field!r}")
    for section in ("adaptive", "supervisor", "checkpoint"):
        if "enabled" not in report[section]:
            problems.append(f"{section} missing 'enabled'")
    if "hit" not in report["max_wall"]:
        problems.append("max_wall missing 'hit'")
    states = report.get("terminal_states")
    if states is not None:
        if not isinstance(states, dict):
            problems.append("terminal_states is not a dict")
        elif report["checkpoint"].get("completed") and len(states) > report[
            "dispatched"
        ]:
            problems.append(
                f"terminal_states has {len(states)} entries but only "
                f"{report['dispatched']} subframes dispatched"
            )
    return problems
