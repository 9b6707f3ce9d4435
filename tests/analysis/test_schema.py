"""REP301/REP302 obs event-schema cross-check over a miniature tree."""

def rule_ids(result):
    return [f.rule_id for f in result.findings]

EVENTS = """
    import enum

    class EventKind(str, enum.Enum):
        DISPATCH = "dispatch"
        TASK_START = "task-start"
        WAKE_CHECK = "wake-check"

    class Event:
        def __init__(self, kind, t, core=-1, data=None):
            self.kind = kind
"""

EMITTER_ALL = """
    from events import Event, EventKind

    def run(emit):
        emit(Event(EventKind.DISPATCH, 0))
        emit(Event(EventKind.TASK_START, 1))
        emit(Event(EventKind.WAKE_CHECK, 2))
"""

EMITTER_PARTIAL = """
    from events import Event, EventKind

    def run(emit):
        emit(Event(EventKind.DISPATCH, 0))
        emit(Event(EventKind.TASK_START, 1))
"""

EMITTER_VIA_HELPER = """
    from events import Event, EventKind

    class Tracker:
        def _event(self, kind, t):
            self.emit(Event(kind, t))

        def run(self, recorder):
            self._event(EventKind.DISPATCH, 0)
            self._event(EventKind.TASK_START, 1)
            recorder.of_kind(EventKind.WAKE_CHECK)  # a filter, not an emit
"""

CHECKER_ALL = """
    from events import EventKind

    class SchedulerInvariantChecker:
        def __call__(self, event):
            if event.kind is EventKind.DISPATCH:
                pass
            elif event.kind is EventKind.TASK_START:
                pass
            elif event.kind is EventKind.WAKE_CHECK:
                pass
"""

CHECKER_PARTIAL = """
    from events import EventKind

    class SchedulerInvariantChecker:
        def __call__(self, event):
            if event.kind is EventKind.DISPATCH:
                pass
            elif event.kind is EventKind.TASK_START:
                pass
"""

CHECKER_WITH_IGNORE = """
    from events import EventKind

    # WAKE_CHECK carries no checkable state of its own.
    IGNORED_EVENT_KINDS = frozenset({EventKind.WAKE_CHECK})

    class SchedulerInvariantChecker:
        def __call__(self, event):
            if event.kind is EventKind.DISPATCH:
                pass
            elif event.kind is EventKind.TASK_START:
                pass
"""


def test_fully_covered_schema_passes(lint_tree):
    result = lint_tree(
        {
            "events.py": EVENTS,
            "machine.py": EMITTER_ALL,
            "invariants.py": CHECKER_ALL,
        }
    )
    assert result.ok


def test_unemitted_kind_fails_rep301(lint_tree):
    result = lint_tree(
        {
            "events.py": EVENTS,
            "machine.py": EMITTER_PARTIAL,
            "invariants.py": CHECKER_ALL,
        }
    )
    assert rule_ids(result) == ["REP301"]
    assert "WAKE_CHECK" in result.findings[0].message
    assert result.findings[0].path.endswith("events.py")


def test_emit_helper_call_is_an_emit_site(lint_tree):
    """``self._event(EventKind.X, ...)`` emits X (functions named ``*_event``
    are emit helpers); merely passing a kind to anything else does not."""
    result = lint_tree(
        {
            "events.py": EVENTS,
            "machine.py": EMITTER_VIA_HELPER,
            "invariants.py": CHECKER_ALL,
        }
    )
    assert rule_ids(result) == ["REP301"]
    assert "WAKE_CHECK" in result.findings[0].message


def test_unhandled_kind_fails_rep302(lint_tree):
    result = lint_tree(
        {
            "events.py": EVENTS,
            "machine.py": EMITTER_ALL,
            "invariants.py": CHECKER_PARTIAL,
        }
    )
    assert rule_ids(result) == ["REP302"]
    assert "WAKE_CHECK" in result.findings[0].message


def test_explicit_ignore_set_satisfies_rep302(lint_tree):
    result = lint_tree(
        {
            "events.py": EVENTS,
            "machine.py": EMITTER_ALL,
            "invariants.py": CHECKER_WITH_IGNORE,
        }
    )
    assert result.ok


def test_rule_skips_when_no_emitters_in_file_set(lint_tree):
    # Linting the schema + checker alone (e.g. `repro lint src/repro/obs`)
    # must not claim every kind is unemitted.
    result = lint_tree({"events.py": EVENTS, "invariants.py": CHECKER_ALL})
    assert result.ok


def test_rule_skips_when_no_checker_in_file_set(lint_tree):
    result = lint_tree({"events.py": EVENTS, "machine.py": EMITTER_ALL})
    assert result.ok
