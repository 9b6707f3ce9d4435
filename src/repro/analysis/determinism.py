"""Determinism rules for the simulation / PHY / uplink model code.

``repro.sim`` replays must be bit-identical for a given seed (the
Section IV-D verification depends on it), so inside the deterministic
scope these rules forbid the three classic leak paths:

* ``REP201`` — wall-clock reads (``time.time``/``monotonic``/
  ``perf_counter``/..., ``datetime.now``): simulated time must come from
  the event engine, never the host clock;
* ``REP202`` — nondeterministically seeded randomness: unseeded
  ``np.random.default_rng()`` / ``np.random.RandomState()`` /
  ``random.Random()``, the legacy ``np.random.*`` global-state functions
  and bare ``random.*`` module functions, and ``random.SystemRandom``;
* ``REP203`` — ``for``-iteration (or ``list``/``tuple``/``iter``/
  ``enumerate`` materialisation) of a ``set`` where the consumption order
  can feed scheduling decisions; use ``sorted(...)``. Order-insensitive
  reductions (``len``/``min``/``max``/``sum``/``any``/``all``/
  ``sorted``/``frozenset``) are allowed.

Scope: every module under the packages in
:data:`DETERMINISTIC_PACKAGES`, plus any file carrying a
``# repro-lint: deterministic-scope`` pragma.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .context import ModuleContext
from .findings import Finding, Severity
from .registry import ScopedRule, register

__all__ = [
    "DETERMINISTIC_PACKAGES",
    "WallClockRule",
    "UnseededRngRule",
    "SetOrderRule",
]

#: Packages whose modules promise seed-reproducible behaviour.
DETERMINISTIC_PACKAGES: tuple[str, ...] = (
    "repro.sim",
    "repro.phy",
    "repro.uplink",
)

_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: numpy legacy global-state RNG entry points (not an exhaustive numpy
#: API list — the ones that draw from the shared global BitGenerator).
_NUMPY_GLOBAL_RNG = frozenset(
    {
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.random",
        "numpy.random.random_sample",
        "numpy.random.sample",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
        "numpy.random.normal",
        "numpy.random.uniform",
        "numpy.random.standard_normal",
        "numpy.random.seed",
    }
)

#: Constructors that are deterministic *only* when given a seed argument.
_SEED_REQUIRED = frozenset(
    {"numpy.random.default_rng", "numpy.random.RandomState", "random.Random"}
)

_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"len", "min", "max", "sum", "any", "all", "sorted", "frozenset", "set"}
)
_ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "iter", "enumerate"})


class _DeterministicRule(ScopedRule):
    """In scope: the deterministic packages and any file with the pragma."""

    packages = DETERMINISTIC_PACKAGES

    def in_scope(self, ctx: ModuleContext) -> bool:
        return ctx.has_deterministic_pragma() or super().in_scope(ctx)


@register
class WallClockRule(_DeterministicRule):
    """REP201: no host-clock reads inside the deterministic scope."""

    rule_id = "REP201"
    severity = Severity.ERROR
    description = (
        "wall-clock call in deterministic simulation scope (use the event "
        "engine's simulated time)"
    )

    def check_scoped(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualified_name(node.func)
            if qualified in _WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"call to '{qualified}' reads the host clock; "
                    "deterministic modules must take time from the "
                    "simulation engine",
                )


@register
class UnseededRngRule(_DeterministicRule):
    """REP202: all randomness must flow from an explicit seed."""

    rule_id = "REP202"
    severity = Severity.ERROR
    description = (
        "unseeded or global-state RNG in deterministic simulation scope "
        "(pass an explicit seed / Generator)"
    )

    def check_scoped(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = ctx.qualified_name(node.func)
            if qualified is None:
                continue
            if qualified in _SEED_REQUIRED and not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"'{qualified}()' without a seed draws OS entropy; pass "
                    "an explicit seed",
                )
            elif qualified in _NUMPY_GLOBAL_RNG:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"'{qualified}' uses numpy's shared global RNG state; "
                    "use a seeded np.random.Generator instead",
                )
            elif qualified == "random.SystemRandom":
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "'random.SystemRandom' is OS entropy by definition and "
                    "can never replay",
                )
            elif qualified.startswith("random.") and qualified.count(".") == 1:
                if qualified == "random.Random":
                    continue  # handled by the seed check above
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"'{qualified}' uses the random module's hidden global "
                    "state; use a seeded random.Random or np.random.Generator",
                )


class _SetTypeIndex:
    """Names/attribute paths assigned or annotated as sets in this file."""

    _SET_ANNOTATIONS = ("set", "Set", "frozenset", "FrozenSet", "MutableSet")

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.set_paths: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and self._is_set_expr(node.value):
                for target in node.targets:
                    self._note(target)
            elif isinstance(node, ast.AnnAssign):
                if self._is_set_annotation(node.annotation) or (
                    node.value is not None and self._is_set_expr(node.value)
                ):
                    self._note(node.target)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = node.args
                for arg in [
                    *arguments.posonlyargs,
                    *arguments.args,
                    *arguments.kwonlyargs,
                ]:
                    if arg.annotation is not None and self._is_set_annotation(
                        arg.annotation
                    ):
                        self.set_paths.add(arg.arg)

    def _note(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Name, ast.Attribute)):
            self.set_paths.add(ast.unparse(target))

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return self.ctx.qualified_name(node.func) in ("set", "frozenset")
        return False

    def _is_set_annotation(self, node: ast.expr) -> bool:
        text = ast.unparse(node)
        head = text.split("[", 1)[0].split(".")[-1].strip()
        return head in self._SET_ANNOTATIONS

    def is_set(self, node: ast.expr) -> bool:
        if self._is_set_expr(node):
            return True
        if isinstance(node, (ast.Name, ast.Attribute)):
            return ast.unparse(node) in self.set_paths
        return False


@register
class SetOrderRule(_DeterministicRule):
    """REP203: scheduling-visible iteration order must not come from sets."""

    rule_id = "REP203"
    severity = Severity.ERROR
    description = (
        "iteration over a set in deterministic simulation scope (set order "
        "is implementation-defined; iterate sorted(...) instead)"
    )

    def check_scoped(self, ctx: ModuleContext) -> Iterator[Finding]:
        index = _SetTypeIndex(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if index.is_set(node.iter):
                    yield self._iteration_finding(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if index.is_set(generator.iter):
                        yield self._iteration_finding(ctx, generator.iter)
            elif isinstance(node, ast.DictComp):
                for generator in node.generators:
                    if index.is_set(generator.iter):
                        yield self._iteration_finding(ctx, generator.iter)
            elif isinstance(node, ast.Call):
                qualified = ctx.qualified_name(node.func)
                if (
                    qualified in _ORDER_SENSITIVE_CONSUMERS
                    and node.args
                    and index.is_set(node.args[0])
                ):
                    yield self._iteration_finding(ctx, node.args[0])

    def _iteration_finding(self, ctx: ModuleContext, node: ast.expr) -> Finding:
        return self.finding(
            ctx,
            node.lineno,
            node.col_offset,
            f"iteration order of set '{ast.unparse(node)}' is "
            "implementation-defined and can leak into scheduling; use "
            "sorted(...) (or an order-insensitive reduction)",
        )
