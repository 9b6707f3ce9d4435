"""REP201/REP202/REP203 determinism rules: scope and fixtures."""

def rule_ids(result):
    return [f.rule_id for f in result.findings]

WALL_CLOCK = """
    # repro-lint: deterministic-scope
    import time

    def now():
        return time.monotonic()
"""

WALL_CLOCK_FROM_IMPORT = """
    # repro-lint: deterministic-scope
    from time import perf_counter as pc

    def now():
        return pc()
"""

UNSEEDED_RNG = """
    # repro-lint: deterministic-scope
    import numpy as np

    def draw():
        return np.random.default_rng().normal()
"""

SEEDED_RNG_OK = """
    # repro-lint: deterministic-scope
    import numpy as np
    import random

    def draw(seed):
        rng = np.random.default_rng(seed)
        local = random.Random(seed)
        return rng.normal() + local.random()
"""

GLOBAL_RNG = """
    # repro-lint: deterministic-scope
    import random
    import numpy as np

    def draw():
        return random.random() + np.random.rand()
"""

SET_ITERATION = """
    # repro-lint: deterministic-scope
    def drain(ready: set[int]):
        for core in ready:
            print(core)
"""

SET_LITERAL_ITERATION = """
    # repro-lint: deterministic-scope
    def drain():
        order = [w for w in {3, 1, 2}]
        return order
"""

SET_MATERIALISED = """
    # repro-lint: deterministic-scope
    def drain(cores):
        idle = set(cores)
        return list(idle)
"""

SET_SORTED_OK = """
    # repro-lint: deterministic-scope
    def drain(ready: set[int]):
        for core in sorted(ready):
            print(core)
        return len(ready), min(ready)
"""

SET_ATTRIBUTE_ITERATION = """
    # repro-lint: deterministic-scope
    class Sim:
        def __init__(self, n):
            self._idle: set[int] = set(range(n))

        def drain(self):
            for core in self._idle:
                print(core)
"""


def test_wall_clock_flagged_in_scope(lint_snippet):
    result = lint_snippet(WALL_CLOCK)
    assert rule_ids(result) == ["REP201"]
    assert "time.monotonic" in result.findings[0].message


def test_wall_clock_from_import_alias_flagged(lint_snippet):
    result = lint_snippet(WALL_CLOCK_FROM_IMPORT)
    assert rule_ids(result) == ["REP201"]
    assert "time.perf_counter" in result.findings[0].message


def test_out_of_scope_file_is_ignored(lint_snippet):
    # Same wall-clock call, but no pragma and not under repro.sim/phy/
    # uplink: the determinism rules must not fire (this is serve's and
    # the runtimes' real-time-pacing situation).
    source = WALL_CLOCK.replace("# repro-lint: deterministic-scope", "")
    assert lint_snippet(source).ok


def test_unseeded_default_rng_flagged(lint_snippet):
    result = lint_snippet(UNSEEDED_RNG)
    assert rule_ids(result) == ["REP202"]
    assert "numpy.random.default_rng" in result.findings[0].message


def test_seeded_rng_passes(lint_snippet):
    assert lint_snippet(SEEDED_RNG_OK).ok


def test_global_state_rng_flagged(lint_snippet):
    result = lint_snippet(GLOBAL_RNG)
    assert rule_ids(result) == ["REP202", "REP202"]


def test_set_parameter_iteration_flagged(lint_snippet):
    result = lint_snippet(SET_ITERATION)
    assert rule_ids(result) == ["REP203"]


def test_set_literal_comprehension_flagged(lint_snippet):
    result = lint_snippet(SET_LITERAL_ITERATION)
    assert rule_ids(result) == ["REP203"]


def test_list_of_set_flagged(lint_snippet):
    result = lint_snippet(SET_MATERIALISED)
    assert rule_ids(result) == ["REP203"]


def test_sorted_and_reductions_pass(lint_snippet):
    assert lint_snippet(SET_SORTED_OK).ok


def test_annotated_set_attribute_iteration_flagged(lint_snippet):
    result = lint_snippet(SET_ATTRIBUTE_ITERATION)
    assert rule_ids(result) == ["REP203"]
    assert "self._idle" in result.findings[0].message
