"""Implementation of the ``repro lint`` subcommand.

Exit codes (stable, CI depends on them):

* ``0`` — no findings (after suppressions), or ``--list-rules`` ran;
* ``1`` — at least one finding;
* ``2`` — usage error (nonexistent path, unknown rule id).
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .driver import LintResult, LintUsageError, lint_paths
from .registry import default_rules, rule_catalogue

__all__ = ["run_lint", "result_to_json"]


def result_to_json(result: LintResult) -> dict[str, Any]:
    """The ``--format json`` document (and its schema, in one place)."""
    return {
        "version": 1,
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "findings": [f.to_dict() for f in result.findings],
    }


def _escape_annotation(value: str, *, property: bool = False) -> str:
    """Escape per GitHub's workflow-command rules (order matters: % first)."""
    value = value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    if property:
        value = value.replace(":", "%3A").replace(",", "%2C")
    return value


def _print_github(result: LintResult) -> None:
    """``::error`` workflow commands, one per finding.

    GitHub Actions turns these into inline PR annotations; everything else
    (the summary line) goes to stderr so it never parses as a command.
    """
    for finding in result.findings:
        print(
            "::error "
            f"file={_escape_annotation(finding.path, property=True)},"
            f"line={finding.line},"
            f"col={finding.col},"
            f"title={_escape_annotation(finding.rule_id, property=True)}"
            f"::{_escape_annotation(finding.message)}"
        )
    print(
        f"{result.files_checked} file(s) checked, "
        f"{len(result.findings)} finding(s)",
        file=sys.stderr,
    )


def _print_text(result: LintResult) -> None:
    for finding in result.findings:
        print(finding.render())
    tail = (
        f"{result.files_checked} file(s) checked, "
        f"{len(result.findings)} finding(s)"
    )
    if result.suppressed:
        tail += f" ({result.suppressed} suppressed)"
    print(tail)


def run_lint(args) -> int:
    """Drive one lint run from parsed CLI arguments."""
    if getattr(args, "list_rules", False):
        for rule_id, severity, description in rule_catalogue():
            print(f"{rule_id} [{severity}] {description}")
        return 0

    select = None
    if getattr(args, "select", None):
        select = [r.strip() for r in args.select.split(",") if r.strip()]

    try:
        result = lint_paths(args.paths, rules=default_rules(select))
    except (LintUsageError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro lint: {message}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(result_to_json(result), indent=2))
    elif args.format == "github":
        _print_github(result)
    else:
        _print_text(result)
    return 0 if result.ok else 1
