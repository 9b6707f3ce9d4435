"""Scope-coverage regression test: rules must not drift off the runtimes.

The REP4xx robustness rules apply to the packages in ``ROBUST_PACKAGES``
and the REP2xx determinism rules to ``DETERMINISTIC_PACKAGES``. Nothing
else stops a refactor from renaming a package out from under its rules —
the lint would silently pass because nothing was *in scope* any more.
These tests pin the contract from both ends: every module of the
scheduler and fault layers is still checked by REP401 and REP402, and
every scope tuple still names a real package. The REP51x shared-memory
rules are import-gated rather than package-scoped, so they reach the
runtimes wherever a segment is handled.
"""

import textwrap
from pathlib import Path

from repro.analysis import default_rules, rule_catalogue
from repro.analysis.context import ModuleContext
from repro.analysis.determinism import DETERMINISTIC_PACKAGES
from repro.analysis.robustness import ROBUST_PACKAGES

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

#: Appended to a real module: one bare except whose body swallows.
SWALLOWING_HANDLER = textwrap.dedent(
    """

    def _scope_probe():
        try:
            pass
        except:
            pass
    """
)

#: Appended to a real module: a leaked segment (REP511) and an attacher
#: that unlinks (REP512).
SHM_MISUSE = textwrap.dedent(
    """

    from multiprocessing import shared_memory as _probe_shm

    def _shm_probe_leak():
        shm = _probe_shm.SharedMemory(create=True, size=64)
        return shm.size

    def _shm_probe_unlink(name):
        shm = _probe_shm.SharedMemory(name=name)
        shm.close()
        shm.unlink()
    """
)


def _fired(path, rules, probe):
    source = path.read_text(encoding="utf-8") + probe
    ctx = ModuleContext.parse(path, str(path), source)
    return {f.rule_id for rule in rules for f in rule.check_module(ctx)}


def _runtime_modules():
    for package in ("sched", "faults"):
        yield from sorted((REPO_SRC / "repro" / package).glob("*.py"))


def test_every_runtime_module_is_covered():
    paths = list(_runtime_modules())
    assert paths, "no runtime modules found — did src/repro move?"
    rules = default_rules(["REP401", "REP402"])
    for path in paths:
        fired = _fired(path, rules, SWALLOWING_HANDLER)
        assert fired == {"REP401", "REP402"}, (
            f"{ctx.module} is not checked by REP401/REP402; a package "
            f"rename drifted out of ROBUST_PACKAGES"
        )


def test_scoped_safety_rules_exist():
    # Both surviving safety families are registered, and the REP4xx one
    # has a real (non-universal) scope: a module outside ROBUST_PACKAGES
    # with the same swallowing handler stays clean.
    ids = {rule_id for rule_id, _, _ in rule_catalogue()}
    assert {"REP401", "REP402"} <= ids
    assert {"REP511", "REP512"} <= ids
    outside = REPO_SRC / "repro" / "cli.py"
    assert not any(
        "repro.cli" == pkg or "repro.cli".startswith(pkg + ".")
        for pkg in ROBUST_PACKAGES
    )
    rules = default_rules(["REP401", "REP402"])
    assert _fired(outside, rules, SWALLOWING_HANDLER) == set()


def test_sched_and_faults_have_both_families():
    rules = default_rules(["REP401", "REP402", "REP511", "REP512"])
    for relative in ("sched/threaded.py", "faults/accounting.py"):
        path = REPO_SRC / "repro" / relative
        assert _fired(path, rules, SWALLOWING_HANDLER) == {"REP401", "REP402"}
        assert _fired(path, rules, SHM_MISUSE) == {"REP511", "REP512"}


def test_scope_tuples_name_real_packages():
    # The inverse drift: a scope tuple naming a package that no longer
    # exists silently checks nothing.
    for packages in (ROBUST_PACKAGES, DETERMINISTIC_PACKAGES):
        for package in packages:
            relative = Path(*package.split("."))
            assert (REPO_SRC / relative).is_dir(), (
                f"rule scope names '{package}' but src/{relative} "
                f"does not exist"
            )


def test_unscoped_rules_cover_everything(lint_snippet):
    # The import-gated shared-memory rules apply to a loose file in no
    # package at all.
    result = lint_snippet(
        """
        from multiprocessing import shared_memory

        def leak():
            shm = shared_memory.SharedMemory(create=True, size=64)
            return shm.size
        """,
        name="scratch.py",
    )
    assert [f.rule_id for f in result.findings] == ["REP511"]
