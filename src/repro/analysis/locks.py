"""Lock discipline: guarded attributes may only be touched under their lock.

Two equivalent declaration conventions (see ``docs/static_analysis.md``):

* a trailing ``# guarded-by: <lock_attr>`` comment on the attribute's
  assignment — either ``self.x = ...`` inside ``__init__`` or a
  class-level / dataclass field annotation;
* a class-level ``_GUARDED_BY = {"attr": "lock_attr"}`` literal map
  (annotate it ``ClassVar`` in dataclasses so it does not become a field).

The check is per-file and textual on the receiver: an access spelled
``<recv>.attr`` (any load, store, delete, or augmented assignment) where
``attr`` is declared guarded by ``lock`` must appear lexically inside a
``with <recv>.lock:`` block — so the tracker's ``self._completed`` needs
``with self._lock:`` and a cross-object ``stats.retries`` needs
``with stats.lock:``. Construction is exempt (``self.<attr>``
inside the declaring scope's ``__init__`` happens before the object is
shared). Lock context never propagates into nested ``def``/``lambda``
bodies: a closure created under a lock typically *runs* after the lock
is released, so guarded accesses inside it are flagged.

Known limitation (suppress with a justification when deliberate): a
helper method called only while the caller holds the lock is flagged,
because the analysis is lexical, not interprocedural.

* ``REP101`` — guarded attribute accessed without holding its lock;
* ``REP102`` — declaration names a lock attribute the class never defines.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass

from .context import ModuleContext
from .findings import Finding, Severity
from .registry import Rule, register

__all__ = ["LockDisciplineRule", "GuardDeclarationRule"]

_GUARDED_BY_RE = re.compile(r"guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")


@dataclass
class _ClassGuards:
    name: str
    line: int
    #: guarded attribute -> lock attribute name
    guarded: dict[str, str]
    #: every attribute the class defines (for REP102 lock existence)
    declared: set[str]


def _attr_target_name(node: ast.expr) -> str | None:
    """``self.x`` -> ``x``; plain ``x`` (class-level field) -> ``x``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "self":
            return node.attr
        return None
    if isinstance(node, ast.Name):
        return node.id
    return None


def _collect_class_guards(
    ctx: ModuleContext, cls: ast.ClassDef
) -> _ClassGuards:
    guarded: dict[str, str] = {}
    declared: set[str] = set()

    def note_assignment(target: ast.expr, line: int) -> None:
        name = _attr_target_name(target)
        if name is None:
            return
        declared.add(name)
        comment = ctx.comments.get(line)
        if comment:
            match = _GUARDED_BY_RE.search(comment)
            if match:
                guarded[name] = match.group(1)

    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "_GUARDED_BY":
                    guarded.update(_literal_guard_map(stmt.value))
                else:
                    note_assignment(target, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == "_GUARDED_BY"
                and stmt.value is not None
            ):
                guarded.update(_literal_guard_map(stmt.value))
            else:
                note_assignment(stmt.target, stmt.lineno)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if stmt.name == "__init__":
                            note_assignment(target, node.lineno)
                        else:
                            name = _attr_target_name(target)
                            if name is not None:
                                declared.add(name)
    return _ClassGuards(
        name=cls.name, line=cls.lineno, guarded=guarded, declared=declared
    )


def _literal_guard_map(node: ast.expr) -> dict[str, str]:
    if not isinstance(node, ast.Dict):
        return {}
    result: dict[str, str] = {}
    for key, value in zip(node.keys, node.values, strict=True):
        if (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, str)
        ):
            result[key.value] = value.value
    return result


class _AccessChecker(ast.NodeVisitor):
    """Walks one module tracking held ``with`` contexts lexically."""

    def __init__(
        self,
        rule: LockDisciplineRule,
        ctx: ModuleContext,
        guards: dict[str, tuple[str, str]],
    ) -> None:
        self.rule = rule
        self.ctx = ctx
        self.guards = guards
        self.held: list[str] = []
        self.function_stack: list[str] = []
        self.findings: list[Finding] = []

    # ------------------------------------------------------- scope handling
    def _visit_function(self, node: ast.AST, name: str) -> None:
        saved = self.held
        self.held = []  # closures may outlive the enclosing lock region
        self.function_stack.append(name)
        self.generic_visit(node)
        self.function_stack.pop()
        self.held = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_function(node, "<lambda>")

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired: list[str] = []
        for item in node.items:
            self.visit(item.context_expr)
            acquired.append(ast.unparse(item.context_expr))
        self.held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        del self.held[len(self.held) - len(acquired) :]

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    # ------------------------------------------------------------- accesses
    def visit_Attribute(self, node: ast.Attribute) -> None:
        guard = self.guards.get(node.attr)
        if guard is not None:
            lock, class_name = guard
            receiver = ast.unparse(node.value)
            stack = self.function_stack
            in_init = bool(stack) and stack[-1] == "__init__"
            if receiver == "self" and in_init:
                pass  # construction happens-before sharing
            else:
                required = f"{receiver}.{lock}"
                if required not in self.held:
                    self.findings.append(
                        self.rule.finding(
                            self.ctx,
                            node.lineno,
                            node.col_offset,
                            f"'{receiver}.{node.attr}' is declared guarded-by "
                            f"'{lock}' (class {class_name}) but is accessed "
                            f"without holding 'with {required}:'",
                        )
                    )
        self.generic_visit(node)


@register
class LockDisciplineRule(Rule):
    """REP101: guarded attributes only under their declared lock."""

    rule_id = "REP101"
    severity = Severity.ERROR
    description = (
        "attribute declared guarded-by a lock is accessed outside a "
        "'with <lock>:' block"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        guards: dict[str, tuple[str, str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                class_guards = _collect_class_guards(ctx, node)
                for attr, lock in class_guards.guarded.items():
                    guards.setdefault(attr, (lock, class_guards.name))
        if not guards:
            return
        checker = _AccessChecker(self, ctx, guards)
        checker.visit(ctx.tree)
        yield from checker.findings


@register
class GuardDeclarationRule(Rule):
    """REP102: guarded-by declarations must name a real lock attribute."""

    rule_id = "REP102"
    severity = Severity.ERROR
    description = (
        "guarded-by declaration references a lock attribute the class "
        "never defines"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            class_guards = _collect_class_guards(ctx, node)
            for attr, lock in sorted(class_guards.guarded.items()):
                if lock not in class_guards.declared:
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"class {node.name} declares '{attr}' guarded-by "
                        f"'{lock}', but never defines an attribute named "
                        f"'{lock}'",
                    )
