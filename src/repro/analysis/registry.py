"""Rule base classes and the process-wide rule registry.

Two rule shapes exist:

* :class:`Rule` — per-file: sees one :class:`~repro.analysis.context.ModuleContext`
  at a time (lock discipline, determinism); a :class:`ScopedRule` checks
  only the modules of the packages it names;
* :class:`ProjectRule` — whole-tree: sees every context at once (the obs
  event-schema cross-check, which must correlate emit sites in one module
  with handler sites in another).

Rules self-register at import time via :func:`register`; the driver asks
:func:`default_rules` for the active set. Adding a rule is: subclass,
decorate, import the module from ``repro.analysis`` (see
``docs/static_analysis.md``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .context import ModuleContext
from .findings import Finding, Severity

__all__ = [
    "Rule",
    "ScopedRule",
    "ProjectRule",
    "register",
    "default_rules",
    "rule_catalogue",
]


class Rule:
    """A per-file analysis rule. Subclasses set the class attributes."""

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=ctx.relpath,
            line=line,
            col=col,
            rule_id=self.rule_id,
            message=message,
            severity=self.severity,
        )


class ScopedRule(Rule):
    """A per-file rule that checks only the modules under ``packages``."""

    packages: tuple[str, ...] = ()

    def in_scope(self, ctx: ModuleContext) -> bool:
        return any(
            ctx.module == pkg or ctx.module.startswith(pkg + ".")
            for pkg in self.packages
        )

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        if self.in_scope(ctx):
            yield from self.check_scoped(ctx)

    def check_scoped(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that needs the whole linted file set at once."""

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, contexts: Iterable[ModuleContext]) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    existing = _REGISTRY.get(rule_cls.rule_id)
    if existing is not None and existing is not rule_cls:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    _REGISTRY[rule_cls.rule_id] = rule_cls
    return rule_cls


def default_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Instantiate the registered rules (optionally only ``select`` ids)."""
    wanted = set(select) if select is not None else None
    if wanted is not None:
        unknown = wanted - _REGISTRY.keys()
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [
        cls()
        for rule_id, cls in sorted(_REGISTRY.items())
        if wanted is None or rule_id in wanted
    ]


def rule_catalogue() -> list[tuple[str, str, str]]:
    """(id, severity, description) for every registered rule, sorted."""
    return [
        (rule_id, cls.severity.value, cls.description)
        for rule_id, cls in sorted(_REGISTRY.items())
    ]
