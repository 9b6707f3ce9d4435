"""Regression notes: fixtures mirroring the real bugs dogfooding found.

Each fixture is a miniature of a violation `repro lint` surfaced in this
tree and that was subsequently fixed. If a rule change makes one of these
pass, the linter has lost the ability to catch a bug class it already
caught once.
"""

def rule_ids(result):
    return [f.rule_id for f in result.findings]

# Regression note 1 — repro/sched/core.py (RuntimeStats; in threaded.py when found):
# the per-worker stats counters were mutated by worker threads
# (`self._stats.tasks_executed[worker_id] += 1`) and summed by callers
# (`total_tasks`) with no synchronisation at all. Fixed by adding
# RuntimeStats.lock and the _GUARDED_BY map; this fixture reproduces the
# pre-fix shape and must keep failing REP101.
THREADED_STATS_PRE_FIX = """
    import threading
    from dataclasses import dataclass, field

    @dataclass
    class RuntimeStats:
        _GUARDED_BY = {"tasks_executed": "lock"}
        tasks_executed: list = field(default_factory=list)
        lock: threading.Lock = field(default_factory=threading.Lock)

        @property
        def total_tasks(self):
            return sum(self.tasks_executed)

    class ThreadedRuntime:
        def __init__(self):
            self._stats = RuntimeStats()

        def _run_task(self, worker_id, task):
            task()
            self._stats.tasks_executed[worker_id] += 1
"""

# Regression note 2 — repro/obs/invariants.py: GOVERNOR, STATE_TRANSITION
# and WAKE_CHECK were silently skipped by the invariant checker (no
# handler, no declared ignore), so schema drift in those kinds was
# invisible. Fixed by declaring IGNORED_EVENT_KINDS with justifications;
# this fixture reproduces the pre-fix shape and must keep failing REP302.
SCHEMA_PRE_FIX = {
    "events.py": """
        import enum

        class EventKind(str, enum.Enum):
            TASK_START = "task-start"
            GOVERNOR = "governor"

        class Event:
            def __init__(self, kind, t, core=-1, data=None):
                self.kind = kind
    """,
    "machine.py": """
        from events import Event, EventKind

        def run(emit):
            emit(Event(EventKind.TASK_START, 0))
            emit(Event(EventKind.GOVERNOR, 0))
    """,
    "invariants.py": """
        from events import EventKind

        class SchedulerInvariantChecker:
            def __call__(self, event):
                if event.kind is EventKind.TASK_START:
                    pass
    """,
}

# Regression note 3 — repro/sched/core.py (Pending.results): the threaded
# runtime's last-user hand-off once read a per-pending guarded result
# outside pending.lock (ordered by the remaining_users==0 observation).
# The tracker has no such hand-off: a Pending's slots are written and
# read only under SubframeTracker._lock, and _resolve builds the
# SubframeResult inside it, so the real tree needs no suppression. The
# *old* shape must keep failing, or the rule guards nothing.
PENDING_HANDOFF_PRE_FIX = """
    import threading
    from dataclasses import dataclass, field

    @dataclass
    class Pending:
        result: list  # guarded-by: lock
        lock: threading.Lock = field(default_factory=threading.Lock)

    class Runtime:
        def __init__(self):
            self._completed = []

        def finish(self, pending):
            self._completed.append(pending.result)
"""


def test_threaded_stats_counters_regression(lint_snippet):
    result = lint_snippet(THREADED_STATS_PRE_FIX)
    assert rule_ids(result) == ["REP101", "REP101"]
    messages = " ".join(f.message for f in result.findings)
    assert "self._stats.tasks_executed" in messages
    assert "self.tasks_executed" in messages


def test_invariant_checker_coverage_regression(lint_tree):
    result = lint_tree(SCHEMA_PRE_FIX)
    assert rule_ids(result) == ["REP302"]
    assert "GOVERNOR" in result.findings[0].message


def test_pending_handoff_requires_explicit_suppression(lint_snippet):
    result = lint_snippet(PENDING_HANDOFF_PRE_FIX)
    assert rule_ids(result) == ["REP101"]
    assert "pending.result" in result.findings[0].message
