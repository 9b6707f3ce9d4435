"""Shared test configuration: the pinned hypothesis profile.

Property suites (``tests/properties``) must behave identically on every
host and every run, so the profile disables the wall-clock deadline (CI
runners are noisy) and derandomizes example generation (each test's
examples are a pure function of the test itself). hypothesis is a dev
extra: when it is absent, only the property suites are skipped — the
fixed-seed tiers never import it.

``tests/reference`` holds the textbook oracles that share no code with
``src/``; any suite imports them as ``reference_kernels``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "reference"))

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis is optional (dev extra)
    pass
else:
    settings.register_profile(
        "repro", deadline=None, derandomize=True, max_examples=100
    )
    settings.load_profile("repro")
