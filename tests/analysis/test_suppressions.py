"""Suppression-comment parsing edge cases."""

import textwrap
from pathlib import Path

from repro.analysis.context import ModuleContext


def _parse(source: str) -> ModuleContext:
    return ModuleContext.parse(
        Path("fixture.py"), "fixture.py", textwrap.dedent(source)
    )


# ------------------------------------------------------- directive parsing
def test_multiple_codes_on_one_line():
    ctx = _parse("x = 1  # repro-lint: disable=REP101,REP203\n")
    assert ctx.suppressed_rules(1) == {"REP101", "REP203"}


def test_codes_with_spaces_around_commas():
    ctx = _parse("x = 1  # repro-lint: disable=REP101 , REP203\n")
    assert ctx.suppressed_rules(1) == {"REP101", "REP203"}


def test_trailing_prose_is_not_a_code():
    ctx = _parse(
        "x = 1  # repro-lint: disable=REP402 best-effort shutdown cleanup\n"
    )
    assert ctx.suppressed_rules(1) == {"REP402"}


def test_trailing_uppercase_prose_is_not_a_code():
    # Prose that *looks* shouty must still not extend the code list.
    ctx = _parse("x = 1  # repro-lint: disable=REP402 OK PER REVIEW\n")
    assert ctx.suppressed_rules(1) == {"REP402"}


def test_standalone_comment_suppresses_next_line():
    ctx = _parse(
        """
        # repro-lint: disable=REP201
        x = now()
        """
    )
    assert "REP201" in ctx.suppressed_rules(3)


def test_trailing_comment_on_previous_statement_does_not_leak():
    ctx = _parse(
        """
        x = now()  # repro-lint: disable=REP201
        y = now()
        """
    )
    assert ctx.suppressed_rules(3) == frozenset()


def test_suppression_above_decorated_def():
    ctx = _parse(
        """
        import functools

        # repro-lint: disable=REP402
        @functools.lru_cache
        @functools.wraps(print)
        def helper():
            pass
        """
    )
    # The finding anchors to the `def` line (7); the suppression sits
    # above the decorator stack, where a reader naturally writes it.
    assert "REP402" in ctx.suppressed_rules(7)


def test_decorated_def_without_suppression():
    ctx = _parse(
        """
        import functools

        @functools.lru_cache
        def helper():
            pass
        """
    )
    assert ctx.suppressed_rules(5) == frozenset()


def test_file_level_directive_with_prose():
    ctx = _parse(
        "# repro-lint: disable-file=REP201, REP202 benchmark is wall-clock\n"
        "x = 1\n"
    )
    assert ctx.file_suppressed_rules() == {"REP201", "REP202"}


# ------------------------------------------------------- end-to-end checks
SWALLOW = """
    def close_all(handles):
        for handle in handles:
            try:
                handle.close()
            except OSError:  {comment}
                pass
"""


def _runtime_module(source):
    # __init__.py markers resolve the file to repro.sched.pool: REP402 scope.
    return {
        "repro/__init__.py": "",
        "repro/sched/__init__.py": "",
        "repro/sched/pool.py": source,
    }


def test_inline_suppression_applies_end_to_end(lint_tree):
    noisy = lint_tree(_runtime_module(SWALLOW.format(comment="")), ["REP402"])
    assert [f.rule_id for f in noisy.findings] == ["REP402"]
    # Same paths, rewritten with the pragma on the handler line.
    quiet = lint_tree(
        _runtime_module(SWALLOW.format(comment="# repro-lint: disable=REP402")),
        ["REP402"],
    )
    assert quiet.ok and quiet.suppressed == 1
