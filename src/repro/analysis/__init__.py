"""AST-based static analysis for the repro codebase (``repro lint``).

The runtime invariant checker (:mod:`repro.obs.invariants`) catches
scheduler-state corruption only on paths a run happens to exercise; this
package catches the same bug *classes* — unguarded shared state,
nondeterminism leaking into the simulation, observability schema drift —
statically, on every file, on every push.

Rule families (full catalogue: ``repro lint --list-rules`` and
``docs/static_analysis.md``):

* ``REP1xx`` lock discipline (:mod:`repro.analysis.locks`);
* ``REP2xx`` simulation determinism (:mod:`repro.analysis.determinism`);
* ``REP3xx`` obs event-schema consistency (:mod:`repro.analysis.schema`);
* ``REP4xx`` robustness — no swallowed failures in the runtimes
  (:mod:`repro.analysis.robustness`);
* ``REP51x`` shared-memory segment lifecycle (:mod:`repro.analysis.shm`).

Importing this package registers all built-in rules.
"""

from . import (  # noqa: F401  (rule registration)
    determinism,
    locks,
    robustness,
    schema,
    shm,
)
from .context import ModuleContext
from .driver import LintResult, LintUsageError, collect_files, lint_paths
from .findings import Finding, Severity
from .registry import ProjectRule, Rule, default_rules, register, rule_catalogue

__all__ = [
    "Finding",
    "LintResult",
    "LintUsageError",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "Severity",
    "collect_files",
    "default_rules",
    "lint_paths",
    "register",
    "rule_catalogue",
]
