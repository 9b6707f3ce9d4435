"""Cross-file lock-order analysis (REP501/REP502).

Builds a whole-program lock-acquisition graph for the concurrent
packages (:data:`CONCURRENCY_PACKAGES`): nodes are lock *classes* named
``ClassName.attr`` (or a bare name for module-level locks), edges are
"``b`` was acquired while ``a`` was held". Edges come from two sources:

* **lexical nesting** — a ``with b:`` (or ``b.acquire()``) inside a
  ``with a:`` block;
* **call chains** — a call made while holding ``a`` to a function whose
  transitive acquisition set (computed by fixpoint over the resolvable
  call graph) contains ``b``.

Lock identity is resolved through the same declarations the REP1xx
rules use: attributes assigned from ``threading.Lock()``-family
constructors or :func:`repro.obs.lockdep.tracked_lock`, attributes named
as the *value* of a ``_GUARDED_BY`` map or ``# guarded-by:`` comment,
and annotations mentioning ``Lock``. ``self.attr`` resolves to the
enclosing class; other receivers resolve when exactly one class declares
the attribute (ambiguous receivers become a ``?.attr`` node — coarse,
but any ordering violation on them is still real).

Orderings are *declared* with a committed comment syntax::

    # lock-order: SubframeLedger.lock -> SubframeTracker._lock

meaning the left lock may be held while acquiring the right one (chains
``A -> B -> C`` declare each adjacent pair; the relation is transitive).
Declarations may appear in any in-scope module and are project-global.

* ``REP501`` — the combined graph (observed edges plus declarations)
  contains a cycle: the ABBA shape that deadlocks under the right
  interleaving, even if no run has hung yet. Self-cycles (re-acquiring a
  held, non-reentrant lock class) are reported too.
* ``REP502`` — an observed edge has no covering ``# lock-order:``
  declaration: nesting someone added without stating the intended order.

Scope: modules under :data:`CONCURRENCY_PACKAGES`, plus any file opting
in with a ``# repro-lint: concurrency-scope`` pragma (test fixtures).
Known limitations: calls are resolved by name (``self.m`` to the
enclosing class, otherwise unique project-wide method/function names);
``.acquire()`` records an acquisition event but not a held region, so
hand-over-hand locking needs explicit declarations.

The runtime witness (:mod:`repro.obs.lockdep`) cross-checks its observed
edges against :func:`build_lock_graph` — see
``tests/obs/test_lockdep.py``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .context import ModuleContext
from .findings import Finding, Severity
from .locks import _GUARDED_BY_RE, _literal_guard_map
from .registry import ProjectRule, register

__all__ = [
    "CONCURRENCY_PACKAGES",
    "LockGraph",
    "LockOrderCycleRule",
    "UndeclaredLockOrderRule",
    "build_lock_graph",
    "in_concurrency_scope",
    "lock_graph_for_paths",
]

#: Packages whose locks participate in the whole-program order graph.
CONCURRENCY_PACKAGES: tuple[str, ...] = (
    "repro.sched",
    "repro.faults",
    "repro.obs",
    "repro.serve",
)

_CONCURRENCY_PRAGMA = "repro-lint: concurrency-scope"

#: Constructors whose result is a lock (qualified through import aliases).
_LOCK_CTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)


def in_concurrency_scope(ctx: ModuleContext) -> bool:
    if any(
        ctx.module == pkg or ctx.module.startswith(pkg + ".")
        for pkg in CONCURRENCY_PACKAGES
    ):
        return True
    return any(
        _CONCURRENCY_PRAGMA in comment for comment in ctx.comments.values()
    )


@dataclass(frozen=True)
class Site:
    """Where an edge (or declaration) was observed."""

    path: str
    line: int
    col: int
    note: str = ""


@dataclass
class LockGraph:
    """The whole-program lock-order graph."""

    #: observed edge (held, acquired) -> first site that created it.
    edges: dict[tuple[str, str], Site] = field(default_factory=dict)
    #: declared orderings, as adjacent pairs from ``# lock-order:`` lines.
    declared: set[tuple[str, str]] = field(default_factory=set)
    declared_sites: dict[tuple[str, str], Site] = field(default_factory=dict)

    def add_edge(self, held: str, acquired: str, site: Site) -> None:
        self.edges.setdefault((held, acquired), site)

    def declared_closure(self) -> set[tuple[str, str]]:
        """Transitive closure of the declared pairs (A->B->C covers A->C)."""
        closure = set(self.declared)
        changed = True
        while changed:
            changed = False
            for a, b in list(closure):
                for c, d in list(closure):
                    if b == c and (a, d) not in closure and a != d:
                        closure.add((a, d))
                        changed = True
        return closure

    def nodes(self) -> set[str]:
        found: set[str] = set()
        for a, b in list(self.edges) + list(self.declared):
            found.add(a)
            found.add(b)
        return found

    def cycles(self) -> list[list[str]]:
        """Elementary cycles in observed ∪ declared, one per SCC.

        Each cycle is returned as ``[n1, n2, ..., n1]``. A self-edge
        yields ``[n, n]``.
        """
        adjacency: dict[str, set[str]] = {n: set() for n in self.nodes()}
        for a, b in set(self.edges) | self.declared:
            adjacency[a].add(b)
        sccs = _tarjan_sccs(adjacency)
        cycles: list[list[str]] = []
        for scc in sccs:
            members = set(scc)
            if len(scc) == 1:
                node = scc[0]
                if node in adjacency[node]:
                    cycles.append([node, node])
                continue
            cycles.append(_cycle_path(adjacency, members))
        return cycles

    def edge_site(self, a: str, b: str) -> Site | None:
        return self.edges.get((a, b)) or self.declared_sites.get((a, b))


def _tarjan_sccs(adjacency: dict[str, set[str]]) -> list[list[str]]:
    """Iterative Tarjan: strongly connected components, deterministic order."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(sorted(adjacency[root])))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(adjacency[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))

    for start in sorted(adjacency):
        if start not in index:
            strongconnect(start)
    return sccs


def _cycle_path(adjacency: dict[str, set[str]], members: set[str]) -> list[str]:
    """A concrete cycle through an SCC with >1 member, for the message."""
    start = min(members)
    path = [start]
    seen = {start}
    node = start
    while True:
        nxt = min(
            (s for s in adjacency[node] if s in members),
            default=None,
        )
        if nxt is None:  # pragma: no cover - SCC guarantees a successor
            break
        if nxt == start:
            path.append(start)
            return path
        if nxt in seen:
            # Trim the tail to the repeated node and close there.
            at = path.index(nxt)
            return path[at:] + [nxt]
        path.append(nxt)
        seen.add(nxt)
        node = nxt
    return path + [start]  # pragma: no cover


# --------------------------------------------------------------------------
# Declaration collection: which attributes/names are locks?
# --------------------------------------------------------------------------

_LOCK_ORDER_PREFIX = "lock-order:"


def _is_lock_ctor(ctx: ModuleContext, node: ast.expr | None) -> bool:
    if not isinstance(node, ast.Call):
        return False
    qname = ctx.qualified_name(node.func)
    if qname is None:
        return False
    if qname in _LOCK_CTORS:
        return True
    if qname == "tracked_lock" or qname.endswith(".tracked_lock"):
        return True
    if qname == "field" or qname.endswith(".field"):
        # dataclass field(default_factory=<lock factory>)
        for kw in node.keywords:
            if kw.arg != "default_factory":
                continue
            if isinstance(kw.value, ast.Lambda):
                return _is_lock_ctor(ctx, kw.value.body)
            factory = ctx.qualified_name(kw.value)
            if factory in _LOCK_CTORS:
                return True
    return False


def _annotation_is_lock(node: ast.expr | None) -> bool:
    return node is not None and "Lock" in ast.unparse(node)


@dataclass
class _Declarations:
    """Project-wide lock identity and (shallow) type tables."""

    #: class name -> its lock attribute names.
    class_locks: dict[str, set[str]] = field(default_factory=dict)
    #: lock attribute name -> classes declaring it.
    attr_owners: dict[str, set[str]] = field(default_factory=dict)
    #: per-module set of module-level lock variable names.
    module_locks: dict[str, set[str]] = field(default_factory=dict)
    #: class name -> defining module (for typed call resolution).
    classes: dict[str, str] = field(default_factory=dict)
    #: (class, attr) -> class of the attribute's value, when inferable
    #: from ``self.attr = SomeClass(...)`` or an annotation.
    attr_types: dict[tuple[str, str], str] = field(default_factory=dict)

    def note_class_lock(self, class_name: str, attr: str) -> None:
        self.class_locks.setdefault(class_name, set()).add(attr)
        self.attr_owners.setdefault(attr, set()).add(class_name)

    def resolve_attr(self, attr: str, class_name: str | None) -> str | None:
        """Canonical node name for a lock attribute access, or ``None``."""
        if class_name and attr in self.class_locks.get(class_name, ()):
            return f"{class_name}.{attr}"
        owners = self.attr_owners.get(attr, set())
        if len(owners) == 1:
            return f"{next(iter(owners))}.{attr}"
        if owners:
            return f"?.{attr}"
        return None

    def annotation_class(self, node: ast.expr | None) -> str | None:
        """A known class named by an annotation (``Foo`` or ``"Foo"``)."""
        if isinstance(node, ast.Name) and node.id in self.classes:
            return node.id
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in self.classes
        ):
            return node.value
        return None

    def constructed_class(self, node: ast.expr | None) -> str | None:
        """``SomeClass(...)`` for a known class, else ``None``."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in self.classes
        ):
            return node.func.id
        return None


def _collect_declarations(contexts: Sequence[ModuleContext]) -> _Declarations:
    decls = _Declarations()
    for ctx in contexts:
        module_names: set[str] = set()
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Assign) and _is_lock_ctor(ctx, stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        module_names.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if _is_lock_ctor(ctx, stmt.value):
                    module_names.add(stmt.target.id)
        decls.module_locks[ctx.module] = module_names

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                decls.classes.setdefault(node.name, ctx.module)

    for ctx in contexts:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                _collect_class_locks(ctx, node, decls)
                _collect_attr_types(node, decls)
    return decls


def _collect_attr_types(cls: ast.ClassDef, decls: _Declarations) -> None:
    """Shallow attribute typing: annotations and ``self.x = Class(...)``."""
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            typed = decls.annotation_class(
                stmt.annotation
            ) or decls.constructed_class(stmt.value)
            if typed is not None:
                decls.attr_types[(cls.name, stmt.target.id)] = typed
        elif (
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "__init__"
        ):
            for node in ast.walk(stmt):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                typed = decls.constructed_class(node.value)
                if isinstance(node, ast.AnnAssign) and typed is None:
                    typed = decls.annotation_class(node.annotation)
                if typed is None:
                    continue
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        decls.attr_types[(cls.name, target.attr)] = typed


def _collect_class_locks(
    ctx: ModuleContext, cls: ast.ClassDef, decls: _Declarations
) -> None:
    def note_if_lock(target: ast.expr, value: ast.expr | None, line: int,
                     annotation: ast.expr | None = None) -> None:
        name: str | None = None
        if isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                name = target.attr
        elif isinstance(target, ast.Name):
            name = target.id
        if name is None:
            return
        if _is_lock_ctor(ctx, value) or _annotation_is_lock(annotation):
            decls.note_class_lock(cls.name, name)
            return
        comment = ctx.comments.get(line)
        if comment:
            match = _GUARDED_BY_RE.search(comment)
            if match:
                decls.note_class_lock(cls.name, match.group(1))

    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "_GUARDED_BY":
                    for lock in _literal_guard_map(stmt.value).values():
                        decls.note_class_lock(cls.name, lock)
                else:
                    note_if_lock(target, stmt.value, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == "_GUARDED_BY"
                and stmt.value is not None
            ):
                for lock in _literal_guard_map(stmt.value).values():
                    decls.note_class_lock(cls.name, lock)
            else:
                note_if_lock(
                    stmt.target, stmt.value, stmt.lineno, stmt.annotation
                )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.name != "__init__":
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        note_if_lock(target, node.value, node.lineno)
                elif isinstance(node, ast.AnnAssign):
                    note_if_lock(
                        node.target, node.value, node.lineno, node.annotation
                    )


# --------------------------------------------------------------------------
# Function summaries and edge extraction
# --------------------------------------------------------------------------

#: (module, class name or "", function path like "f" or "outer.inner").
_FnKey = tuple[str, str, str]


@dataclass
class _FnSummary:
    key: _FnKey
    ctx: ModuleContext
    #: lock nodes this function acquires lexically.
    acquires: set[str] = field(default_factory=set)
    #: calls made: (held nodes at the call, callee expr, line, col).
    calls: list[tuple[tuple[str, ...], ast.expr, int, int]] = field(
        default_factory=list
    )
    #: local variable -> known class (for typed call resolution).
    local_types: dict[str, str] = field(default_factory=dict)


def _iter_functions(
    ctx: ModuleContext,
) -> Iterator[tuple[_FnKey, str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Every def in the module, each yielded once with its enclosing class."""

    def walk(
        body: Iterable[ast.stmt], class_name: str | None, prefix: str
    ) -> Iterator[
        tuple[_FnKey, str | None, ast.FunctionDef | ast.AsyncFunctionDef]
    ]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                path = f"{prefix}{stmt.name}"
                yield (ctx.module, class_name or "", path), class_name, stmt
                yield from walk(stmt.body, class_name, f"{path}.")
            elif isinstance(stmt, ast.ClassDef):
                yield from walk(stmt.body, stmt.name, "")
            elif isinstance(stmt, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                yield from walk(ast.iter_child_nodes(stmt), class_name, prefix)

    yield from walk(ctx.tree.body, None, "")


class _FnVisitor(ast.NodeVisitor):
    """Extracts acquisitions, lexical edges, and call sites from one def.

    Does not descend into nested defs/lambdas — each nested def gets its
    own summary (a closure body runs after the enclosing lock region, so
    inheriting the held stack would be wrong).
    """

    def __init__(
        self,
        ctx: ModuleContext,
        class_name: str | None,
        decls: _Declarations,
        summary: _FnSummary,
        graph: LockGraph,
    ) -> None:
        self.ctx = ctx
        self.class_name = class_name
        self.decls = decls
        self.summary = summary
        self.graph = graph
        self.held: list[str] = []
        self.local_locks: set[str] = set()

    # ------------------------------------------------------------ resolution
    def receiver_class(self, node: ast.expr) -> str | None:
        """The known class of a receiver expression, if inferable."""
        if isinstance(node, ast.Name):
            if node.id == "self":
                return self.class_name
            return self.summary.local_types.get(node.id)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.class_name
        ):
            return self.decls.attr_types.get((self.class_name, node.attr))
        return None

    def resolve_lock(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Attribute):
            receiver = self.receiver_class(node.value)
            if receiver is not None and node.attr in self.decls.class_locks.get(
                receiver, ()
            ):
                return f"{receiver}.{node.attr}"
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return self.decls.resolve_attr(node.attr, self.class_name)
            return self.decls.resolve_attr(node.attr, None)
        if isinstance(node, ast.Name):
            if node.id in self.local_locks:
                return node.id
            if node.id in self.decls.module_locks.get(self.ctx.module, ()):
                return node.id
        return None

    # ------------------------------------------------------------- recording
    def _record_acquisition(self, lock: str, line: int, col: int) -> None:
        self.summary.acquires.add(lock)
        for held in self.held:
            self.graph.add_edge(
                held, lock, Site(self.ctx.relpath, line, col)
            )

    # ----------------------------------------------------------------- scope
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # separate summary

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass  # separate summary

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # runs later; held stack does not apply

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired: list[str] = []
        for item in node.items:
            self.visit(item.context_expr)
            lock = self.resolve_lock(item.context_expr)
            if lock is not None:
                self._record_acquisition(
                    lock, item.context_expr.lineno, item.context_expr.col_offset
                )
                acquired.append(lock)
        self.held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        if acquired:
            del self.held[-len(acquired):]

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    # ----------------------------------------------------------------- calls
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "acquire":
            lock = self.resolve_lock(func.value)
            if lock is not None:
                self._record_acquisition(lock, node.lineno, node.col_offset)
                self.generic_visit(node)
                return
        self.summary.calls.append(
            (tuple(self.held), func, node.lineno, node.col_offset)
        )
        self.generic_visit(node)

    # ---------------------------------------------------------------- locals
    def visit_Assign(self, node: ast.Assign) -> None:
        is_lock = _is_lock_ctor(self.ctx, node.value)
        constructed = self.decls.constructed_class(node.value)
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if is_lock:
                self.local_locks.add(target.id)
            if constructed is not None:
                self.summary.local_types[target.id] = constructed
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            if _is_lock_ctor(self.ctx, node.value):
                self.local_locks.add(node.target.id)
            typed = self.decls.constructed_class(
                node.value
            ) or self.decls.annotation_class(node.annotation)
            if typed is not None:
                self.summary.local_types[node.target.id] = typed
        self.generic_visit(node)


@dataclass
class _CallIndex:
    """Name-based call resolution tables (best effort, precision over recall)."""

    #: (module, class, fn path) -> summary
    summaries: dict[_FnKey, _FnSummary] = field(default_factory=dict)
    #: method name -> set of (module, class) defining it.
    methods: dict[str, set[tuple[str, str]]] = field(default_factory=dict)
    #: (module, function name) for module-level defs.
    functions: set[tuple[str, str]] = field(default_factory=set)

    def add(self, summary: _FnSummary) -> None:
        module, class_name, path = summary.key
        self.summaries[summary.key] = summary
        if "." in path:
            return  # nested defs are not callable by name from outside
        if class_name:
            self.methods.setdefault(path, set()).add((module, class_name))
        else:
            self.functions.add((module, path))

    def resolve_call(
        self, summary: _FnSummary, decls: _Declarations, func: ast.expr
    ) -> _FnKey | None:
        """Typed, name-based callee resolution.

        ``self.m()`` resolves to the enclosing class; ``obj.m()`` only
        when ``obj``'s class is known (constructor assignment or
        annotation) — never by method name alone, which would conflate
        e.g. ``dict.get`` with a real ``Queue.get``. Missed edges are
        the runtime witness's job to catch.
        """
        ctx = summary.ctx
        class_name = summary.key[1] or None
        if isinstance(func, ast.Name):
            if (ctx.module, func.id) in self.functions:
                return (ctx.module, "", func.id)
            return None
        if not isinstance(func, ast.Attribute):
            return None
        name = func.attr
        base = func.value
        receiver: str | None = None
        if isinstance(base, ast.Name):
            if base.id == "self":
                receiver = class_name
            else:
                receiver = summary.local_types.get(base.id)
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and class_name
        ):
            receiver = decls.attr_types.get((class_name, base.attr))
        if receiver is None:
            return None
        module = decls.classes.get(receiver)
        if module is not None and (module, receiver) in self.methods.get(
            name, set()
        ):
            return (module, receiver, name)
        return None


def build_lock_graph(contexts: Iterable[ModuleContext]) -> LockGraph:
    """Analyze every in-scope context into one :class:`LockGraph`."""
    scoped = [ctx for ctx in contexts if in_concurrency_scope(ctx)]
    graph = LockGraph()
    decls = _collect_declarations(scoped)

    # Declared orderings: "# lock-order: A -> B -> C" anywhere in scope.
    for ctx in scoped:
        for line, comment in sorted(ctx.comments.items()):
            if _LOCK_ORDER_PREFIX not in comment:
                continue
            spec = comment.split(_LOCK_ORDER_PREFIX, 1)[1]
            names = [part.strip() for part in spec.split("->")]
            names = [n for n in names if n]
            for a, b in zip(names, names[1:]):
                graph.declared.add((a, b))
                graph.declared_sites.setdefault(
                    (a, b), Site(ctx.relpath, line, 0, note="declaration")
                )

    # Pass 1: per-function summaries and lexical edges.
    index = _CallIndex()
    for ctx in scoped:
        for key, class_name, fndef in _iter_functions(ctx):
            summary = _FnSummary(key=key, ctx=ctx)
            args = fndef.args
            for arg in [
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
            ]:
                typed = decls.annotation_class(arg.annotation)
                if typed is not None:
                    summary.local_types[arg.arg] = typed
            visitor = _FnVisitor(ctx, class_name, decls, summary, graph)
            for stmt in fndef.body:
                visitor.visit(stmt)
            index.add(summary)

    # Pass 2: transitive acquisition sets (fixpoint over resolvable calls).
    resolved_calls: dict[_FnKey, set[_FnKey]] = {}
    for summary in index.summaries.values():
        callees: set[_FnKey] = set()
        for _held, func, _line, _col in summary.calls:
            callee = index.resolve_call(summary, decls, func)
            if callee is not None and callee != summary.key:
                callees.add(callee)
        resolved_calls[summary.key] = callees

    total: dict[_FnKey, set[str]] = {
        key: set(s.acquires) for key, s in index.summaries.items()
    }
    changed = True
    while changed:
        changed = False
        for key, callees in resolved_calls.items():
            mine = total[key]
            before = len(mine)
            for callee in callees:
                mine |= total.get(callee, set())
            if len(mine) != before:
                changed = True

    # Pass 3: edges through calls made while holding a lock.
    for summary in index.summaries.values():
        for held, func, line, col in summary.calls:
            if not held:
                continue
            callee = index.resolve_call(summary, decls, func)
            if callee is None or callee == summary.key:
                continue
            callee_disp = f"{callee[1]}.{callee[2]}" if callee[1] else callee[2]
            for lock in sorted(total.get(callee, set())):
                for holder in held:
                    graph.add_edge(
                        holder,
                        lock,
                        Site(
                            summary.ctx.relpath,
                            line,
                            col,
                            note=f"via call to {callee_disp}",
                        ),
                    )
    return graph


def lock_graph_for_paths(paths: Sequence[str | Path]) -> LockGraph:
    """Convenience for the runtime cross-check: parse and analyze ``paths``."""
    from .driver import collect_files

    contexts = []
    for path in collect_files(paths):
        source = path.read_text(encoding="utf-8")
        contexts.append(ModuleContext.parse(path, str(path), source))
    return build_lock_graph(contexts)


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------


@register
class LockOrderCycleRule(ProjectRule):
    """REP501: the lock-order graph must be acyclic."""

    rule_id = "REP501"
    severity = Severity.ERROR
    description = (
        "lock-acquisition graph (observed nesting plus declared orders) "
        "contains a cycle: ABBA deadlock risk"
    )
    packages = CONCURRENCY_PACKAGES

    def check_project(
        self, contexts: Iterable[ModuleContext]
    ) -> Iterator[Finding]:
        graph = build_lock_graph(contexts)
        for cycle in graph.cycles():
            if len(cycle) == 2 and cycle[0] == cycle[1]:
                message = (
                    f"lock '{cycle[0]}' can be re-acquired while already "
                    "held (non-reentrant self-deadlock)"
                )
            else:
                chain = " -> ".join(cycle)
                message = (
                    f"lock-order cycle {chain}: these locks are acquired "
                    "in conflicting orders (deadlock under the right "
                    "interleaving)"
                )
            site = None
            for a, b in zip(cycle, cycle[1:]):
                site = graph.edge_site(a, b)
                if site is not None:
                    break
            yield Finding(
                path=site.path if site else "<project>",
                line=site.line if site else 1,
                col=site.col if site else 0,
                rule_id=self.rule_id,
                message=message,
                severity=self.severity,
            )


@register
class UndeclaredLockOrderRule(ProjectRule):
    """REP502: observed lock nesting must have a declared order."""

    rule_id = "REP502"
    severity = Severity.ERROR
    description = (
        "lock acquired while holding another lock without a covering "
        "'# lock-order:' declaration"
    )
    packages = CONCURRENCY_PACKAGES

    def check_project(
        self, contexts: Iterable[ModuleContext]
    ) -> Iterator[Finding]:
        graph = build_lock_graph(contexts)
        covered = graph.declared_closure()
        for (held, acquired), site in sorted(
            graph.edges.items(), key=lambda kv: (kv[1].path, kv[1].line)
        ):
            if held == acquired:
                continue  # REP501 reports self-cycles
            if (held, acquired) in covered:
                continue
            detail = f" ({site.note})" if site.note else ""
            yield Finding(
                path=site.path,
                line=site.line,
                col=site.col,
                rule_id=self.rule_id,
                message=(
                    f"'{acquired}' is acquired while holding '{held}'"
                    f"{detail} but no '# lock-order: {held} -> {acquired}' "
                    "declaration covers it"
                ),
                severity=self.severity,
            )
