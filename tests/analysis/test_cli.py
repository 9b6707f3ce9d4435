"""``repro lint`` CLI: exit codes, JSON output, dogfooding."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import Finding
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

CLEAN = """
    def add(a, b):
        return a + b
"""

VIOLATION = """
    # repro-lint: deterministic-scope
    import time

    def now():
        return time.time()
"""


@pytest.fixture
def fixture_file(tmp_path):
    def write(source, name="fixture.py"):
        path = tmp_path / name
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return path

    return write


def test_clean_tree_exits_zero(fixture_file, capsys):
    path = fixture_file(CLEAN)
    assert main(["lint", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1 file(s) checked, 0 finding(s)" in out


def test_violation_exits_one(fixture_file, capsys):
    path = fixture_file(VIOLATION)
    assert main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert "REP201" in out


def test_bad_path_exits_two(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "does_not_exist")]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_unknown_rule_exits_two(fixture_file, capsys):
    path = fixture_file(CLEAN)
    assert main(["lint", str(path), "--select", "REP999"]) == 2
    assert "REP999" in capsys.readouterr().err


def test_syntax_error_is_a_finding(fixture_file, capsys):
    path = fixture_file("def broken(:\n")
    assert main(["lint", str(path)]) == 1
    assert "REP001" in capsys.readouterr().out


def test_json_output_round_trips(fixture_file, capsys):
    path = fixture_file(VIOLATION)
    assert main(["lint", str(path), "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == 1
    assert document["files_checked"] == 1
    findings = [Finding.from_dict(record) for record in document["findings"]]
    assert [f.rule_id for f in findings] == ["REP201"]
    assert findings[0].to_dict() == document["findings"][0]


def test_list_rules_mentions_every_family(capsys):
    assert main(["lint", "--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == [
        "REP101", "REP102", "REP201", "REP202", "REP203", "REP301",
        "REP401", "REP402", "REP511", "REP512",
    ]


def test_file_level_suppression(fixture_file):
    source = "# repro-lint: disable-file=REP201\n" + textwrap.dedent(VIOLATION)
    path = fixture_file(source)
    assert main(["lint", str(path)]) == 0


def test_dogfood_src_is_clean(capsys, monkeypatch):
    # The acceptance gate: the shipped tree lints clean with the shipped
    # suppressions (run from the repo root exactly as CI does).
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "src"]) == 0


def test_github_format_emits_workflow_commands(fixture_file, capsys):
    path = fixture_file(VIOLATION)
    assert main(["lint", str(path), "--format", "github"]) == 1
    captured = capsys.readouterr()
    lines = [l for l in captured.out.splitlines() if l]
    assert len(lines) == 1
    line = lines[0]
    assert line.startswith("::error file=")
    assert ",line=" in line and ",col=" in line
    assert "title=REP201" in line
    # The summary goes to stderr so it can never parse as a command.
    assert "file(s) checked" in captured.err
    assert "::" not in captured.err


def test_github_format_escapes_newlines_and_percent(tmp_path, capsys, monkeypatch):
    from repro.analysis.cli import _escape_annotation

    assert _escape_annotation("50% done\nnext") == "50%25 done%0Anext"
    assert _escape_annotation("a,b:c", property=True) == "a%2Cb%3Ac"
    # % is escaped first, or the escapes themselves would be re-escaped.
    assert _escape_annotation("%0A") == "%250A"
