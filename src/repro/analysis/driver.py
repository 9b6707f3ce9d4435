"""The lint driver: file collection, rule execution, filtering.

:func:`lint_paths` is the programmatic entry point (the CLI is a thin
wrapper): expand paths to ``*.py`` files, parse each into a
:class:`~repro.analysis.context.ModuleContext`, run every per-file rule
on every context and every project rule once over the whole set, then
filter inline/file suppressions.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .context import ModuleContext
from .findings import Finding, Severity
from .registry import ProjectRule, Rule, default_rules

__all__ = [
    "LintUsageError",
    "LintResult",
    "collect_files",
    "lint_paths",
]

#: Rule id attached to files that fail to parse.
SYNTAX_RULE_ID = "REP001"


class LintUsageError(Exception):
    """Bad invocation (nonexistent path, unknown rule): CLI exit code 2."""


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    files: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            if path.suffix != ".py":
                raise LintUsageError(f"not a Python file: {path}")
            candidates = [path]
        else:
            raise LintUsageError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    return files


def _relpath(path: Path) -> str:
    try:
        return str(path.resolve().relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def lint_paths(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] | None = None,
) -> LintResult:
    """Lint ``paths`` with ``rules`` (default: every registered rule)."""
    files = collect_files(paths)
    active_rules = list(rules) if rules is not None else default_rules()
    file_rules = [r for r in active_rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in active_rules if isinstance(r, ProjectRule)]
    result = LintResult(files_checked=len(files))
    contexts: list[ModuleContext] = []
    raw_findings: list[Finding] = []

    for path in files:
        relpath = _relpath(path)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raw_findings.append(
                Finding(
                    path=relpath,
                    line=1,
                    col=0,
                    rule_id=SYNTAX_RULE_ID,
                    message=f"file could not be parsed: {exc}",
                    severity=Severity.ERROR,
                )
            )
            continue
        try:
            ctx = ModuleContext.parse(path, relpath, source)
        except (SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", None) or 1
            finding = Finding(
                path=relpath,
                line=int(line),
                col=0,
                rule_id=SYNTAX_RULE_ID,
                message=f"file could not be parsed: {exc}",
                severity=Severity.ERROR,
            )
            raw_findings.append(finding)
            continue
        contexts.append(ctx)
        for rule in file_rules:
            raw_findings.extend(rule.check_module(ctx))

    for rule in project_rules:
        raw_findings.extend(rule.check_project(contexts))

    by_path = {ctx.relpath: ctx for ctx in contexts}
    for finding in sorted(raw_findings):
        ctx = by_path.get(finding.path)
        if ctx is not None:
            if finding.rule_id in ctx.file_suppressed_rules():
                result.suppressed += 1
                continue
            if finding.rule_id in ctx.suppressed_rules(finding.line):
                result.suppressed += 1
                continue
        result.findings.append(finding)
    return result
