"""One reproduction for the whole experiments suite.

Running the evaluation (workload trace, Fig. 12 estimation, the
four-policy power study with gating) is what these tests spend their time
on; what they assert are shapes and orderings of its results. So it runs
once per session, at the smallest scale where those still hold (1,200
subframes: with the 200-subframe probability step the load triangle
reaches probability 1.0 at the half-way point), and ``test_runner.py`` and
``test_experiments.py`` both read from it.
"""

import pytest

from repro.experiments.runner import run_experiments


@pytest.fixture(scope="session")
def reproduction():
    return run_experiments(num_subframes=1200, seed=3)
