"""Cross-file consistency of the observability event schema.

``repro.obs.events.EventKind`` is the contract between the emitters
(simulator, runtimes, serve) and the consumers (invariant checker, the
telemetry fold, recorders). Schema drift is silent at runtime — an event kind
nobody emits just never shows up, and a kind the invariant checker does
not know about is silently skipped — so this rule cross-checks the three
parties statically over the whole linted tree:

* ``REP301`` — every ``EventKind`` member must have at least one emit
  site: an ``Event(EventKind.X, ...)`` construction — or a call of an emit
  helper, a function named ``*_event``, with ``EventKind.X`` among its
  arguments — outside the defining module and the checker module.
  (Skipped when the linted file set
  contains no emit sites at all — e.g. linting ``src/repro/obs`` alone.)
* ``REP302`` — every ``EventKind`` member must be either *handled* by the
  invariant checker module (any ``EventKind.X`` reference in it) or
  *explicitly ignored* via membership in its module-level
  ``IGNORED_EVENT_KINDS`` set, with a comment saying why. (Skipped when
  the linted file set contains no checker module.)

The checker module is recognised by defining a class named
``SchedulerInvariantChecker`` or by a module name ending in
``.invariants``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .context import ModuleContext
from .findings import Finding, Severity
from .registry import ProjectRule, register

__all__ = ["EventSchemaRule", "IGNORED_EVENT_KINDS_NAME"]

IGNORED_EVENT_KINDS_NAME = "IGNORED_EVENT_KINDS"
_ENUM_CLASS = "EventKind"
_CHECKER_CLASS = "SchedulerInvariantChecker"


@dataclass
class _SchemaView:
    defining_ctx: ModuleContext | None = None
    #: member name -> line in the defining module
    members: dict[str, int] = field(default_factory=dict)
    emitted: set[str] = field(default_factory=set)
    handled: set[str] = field(default_factory=set)
    ignored: set[str] = field(default_factory=set)
    has_checker: bool = False
    emit_sites_seen: int = 0


def _is_checker_module(ctx: ModuleContext) -> bool:
    if ctx.module.endswith(".invariants"):
        return True
    return any(
        isinstance(node, ast.ClassDef) and node.name == _CHECKER_CLASS
        for node in ctx.tree.body
    )


def _enum_members(cls: ast.ClassDef) -> dict[str, int]:
    members: dict[str, int] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    members[target.id] = stmt.lineno
    return members


def _kind_refs(tree: ast.AST) -> Iterator[tuple[str, ast.Attribute]]:
    """Every ``EventKind.X`` attribute reference in ``tree``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == _ENUM_CLASS
        ):
            yield node.attr, node


def _is_event_call(node: ast.Call) -> bool:
    """``Event(...)`` itself, or an emit helper: by convention a function
    whose name ends in ``_event`` builds the ``Event`` from its arguments
    (``self._event(EventKind.X, ...)`` is as much an emit site)."""
    func = node.func
    name = getattr(func, "id", None) or getattr(func, "attr", "")
    return name == "Event" or name.endswith("_event")


@register
class EventSchemaRule(ProjectRule):
    """REP301/REP302: emit-site and handler coverage for every EventKind."""

    rule_id = "REP301"
    severity = Severity.ERROR
    description = (
        "every EventKind member needs an emit site (REP301) and invariant-"
        "checker handling or an explicit ignore (REP302)"
    )

    def check_project(self, contexts: Iterable[ModuleContext]) -> Iterator[Finding]:
        view = self._build_view(list(contexts))
        if view.defining_ctx is None or not view.members:
            return
        yield from self._check_emitted(view)
        yield from self._check_handled(view)

    # -------------------------------------------------------------- passes
    def _build_view(self, contexts: list[ModuleContext]) -> _SchemaView:
        view = _SchemaView()
        for ctx in contexts:
            for node in ctx.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == _ENUM_CLASS:
                    view.defining_ctx = ctx
                    view.members = _enum_members(node)
        for ctx in contexts:
            if ctx is view.defining_ctx:
                continue
            if _is_checker_module(ctx):
                view.has_checker = True
                self._scan_checker(ctx, view)
                continue
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Call) and _is_event_call(node):
                    view.emit_sites_seen += 1
                    for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                        for member, _ in _kind_refs(arg):
                            view.emitted.add(member)
        return view

    def _scan_checker(self, ctx: ModuleContext, view: _SchemaView) -> None:
        ignored_spans: list[tuple[int, int]] = []
        for node in ast.walk(ctx.tree):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            if value is None:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == IGNORED_EVENT_KINDS_NAME
                ):
                    ignored_spans.append(
                        (value.lineno, value.end_lineno or value.lineno)
                    )
                    for member, _ in _kind_refs(value):
                        view.ignored.add(member)
        for member, ref in _kind_refs(ctx.tree):
            if any(lo <= ref.lineno <= hi for lo, hi in ignored_spans):
                continue
            view.handled.add(member)

    def _check_emitted(self, view: _SchemaView) -> Iterator[Finding]:
        if view.emit_sites_seen == 0:
            return  # emitters are outside the linted file set
        assert view.defining_ctx is not None
        for member, line in sorted(view.members.items()):
            if member not in view.emitted:
                yield Finding(
                    path=view.defining_ctx.relpath,
                    line=line,
                    col=0,
                    rule_id="REP301",
                    message=(
                        f"EventKind.{member} has no emit site (no "
                        f"Event(EventKind.{member}, ...) construction in "
                        "the linted tree); emit it or delete the member"
                    ),
                    severity=self.severity,
                )

    def _check_handled(self, view: _SchemaView) -> Iterator[Finding]:
        if not view.has_checker:
            return  # checker module is outside the linted file set
        assert view.defining_ctx is not None
        for member, line in sorted(view.members.items()):
            if member not in view.handled and member not in view.ignored:
                yield Finding(
                    path=view.defining_ctx.relpath,
                    line=line,
                    col=0,
                    rule_id="REP302",
                    message=(
                        f"EventKind.{member} is neither handled by the "
                        "invariant checker nor listed in "
                        f"{IGNORED_EVENT_KINDS_NAME}; handle it or add it "
                        "to the ignore set with a justification"
                    ),
                    severity=self.severity,
                )
