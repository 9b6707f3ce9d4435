"""Robustness rules: no silently swallowed failures in the runtimes.

The fault-injection campaign (:mod:`repro.faults.chaos`) only proves the
recovery paths that *run*; these rules statically forbid the handler
shapes that created the original silent-worker-death bug — a failure
caught and discarded so the scheduler wedges with no diagnostic:

* ``REP401`` — bare ``except:`` clauses. They catch ``SystemExit``,
  ``KeyboardInterrupt`` and the injector's
  :exc:`~repro.faults.injector.InjectedWorkerDeath` alike, so a planned
  worker death (or a Ctrl-C) can vanish into them. Name the exception
  type — ``except Exception`` at the widest.
* ``REP402`` — swallowed exceptions: a handler whose body is only
  ``pass``/``...``/``continue`` discards the failure without recording,
  re-raising, or recovering. Handlers must do *something* observable
  with the error (log it, append it to a failure list, emit an event,
  re-raise, return a fallback).

Scope: the scheduler runtimes and the fault layer itself
(:data:`ROBUST_PACKAGES`) — the modules whose swallowed errors turn into
hangs instead of tracebacks. Intentional discards (e.g. best-effort
cleanup on shutdown) take a ``# repro-lint: disable=REP402`` pragma with
a justification comment.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .context import ModuleContext
from .findings import Finding, Severity
from .registry import ScopedRule, register

__all__ = ["ROBUST_PACKAGES", "BareExceptRule", "SwallowedExceptionRule"]

#: Packages where a swallowed exception becomes a hang or a silent wedge.
#: ``repro.obs`` is included: a swallowed error in an observer silently
#: blinds the very diagnostics that would have reported it.
ROBUST_PACKAGES: tuple[str, ...] = (
    "repro.sched",
    "repro.sim",
    "repro.faults",
    "repro.obs",
    "repro.serve",
)


@register
class BareExceptRule(ScopedRule):
    """REP401: no bare ``except:`` in scheduler/simulator/fault code."""

    rule_id = "REP401"
    severity = Severity.ERROR
    packages = ROBUST_PACKAGES
    description = (
        "bare 'except:' in runtime scope (catches KeyboardInterrupt and "
        "injected worker death; name the exception type)"
    )

    def check_scoped(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt and "
                    "injected faults alike; catch a named exception type "
                    "('except Exception' at the widest)",
                )


def _is_discard_stmt(stmt: ast.stmt) -> bool:
    if isinstance(stmt, (ast.Pass, ast.Continue)):
        return True
    # A lone `...` expression statement.
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value is Ellipsis
    )


@register
class SwallowedExceptionRule(ScopedRule):
    """REP402: exception handlers must record, recover, or re-raise."""

    rule_id = "REP402"
    severity = Severity.ERROR
    packages = ROBUST_PACKAGES
    description = (
        "exception handler discards the failure (body is only pass/.../"
        "continue); record it, recover, or re-raise"
    )

    def check_scoped(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if all(_is_discard_stmt(stmt) for stmt in node.body):
                caught = ast.unparse(node.type) if node.type else "everything"
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"handler for {caught} swallows the exception silently; "
                    "a failure here becomes a hang, not a traceback — "
                    "record it (failure list, event, log) or re-raise",
                )
