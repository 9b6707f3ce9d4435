"""One reproduction for the whole experiments suite.

Running the evaluation (workload trace, Fig. 12 estimation, the
four-policy power study with gating) is what these tests spend their time
on; what they assert are shapes and orderings of its results. So it runs
once per session, at the smallest scale where those still hold, and
``test_runner.py`` and ``test_experiments.py`` both read from it. That is
800 subframes: with the 200-subframe probability step the load triangle
reaches probability 1.0 at the half-way point only when the run is a
multiple of 400, and a 400-subframe run is two averaging windows — no
ramp to order. ``test_full_scale.py`` (slow tier) runs the same assertions
on the 1,200-subframe run this fixture used to be.
"""

import pytest

from repro.experiments.runner import run_experiments


@pytest.fixture(scope="session")
def reproduction():
    return run_experiments(num_subframes=800, seed=3)
