"""The experiments suite's assertions at 1,200 subframes (slow tier).

Tier-1 runs ``test_experiments.py`` and ``test_runner.py`` on an
800-subframe reproduction (``conftest.py``). This module collects the same
test classes against the 1,200-subframe run they were written on, where
the ramp has six averaging windows and comes back down to its floor.
"""

import pytest
from test_experiments import (  # noqa: F401 - collected here as well
    TestEstimation,
    TestPowerStudy,
    estimation,
    study,
)
from test_runner import TestFullReproduction, report  # noqa: F401

from repro.experiments.runner import run_experiments

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def reproduction():
    return run_experiments(num_subframes=1200, seed=3)


def test_ramp_returns_to_its_floor(reproduction):
    """The last window is one 200-subframe step (a third of the ramp at
    this scale) above the floor."""
    assert reproduction.estimation.measured[-1] < 0.35
