"""Property tests for the AIMD overload controller (ISSUE 10 satellite).

The controller is the safety boundary between SLO burn signals and
admission: a bug here either sheds everything (factor escapes below the
floor) or sheds nothing (hysteresis broken, transitions flap every
window and the factor never settles). The suite pins the three
contracts the serve loop relies on:

* the load factor never leaves ``[FLOOR, 1.0]`` for *any* burn trace;
* sustained burn is monotone — each burning window can only cut; and
* the hysteresis band ``(RECOVER_BURN, DEGRADE_BURN)`` is inert, so a
  burn rate oscillating around either threshold cannot flap
  DEGRADE/RECOVER.

Small ``max_examples`` keeps the suite inside tier-1 like the arrival
property tests.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import EventKind
from repro.serve.overload import (
    DECREASE,
    DEGRADE_BURN,
    FLOOR,
    HOLD_WINDOWS,
    RECOVER_BURN,
    AimdController,
    OverloadController,
)

burns = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
traces = st.lists(burns, min_size=1, max_size=100)
#: Burns strictly inside the hysteresis band (1.0, 2.0).
band_burns = st.floats(
    min_value=RECOVER_BURN, max_value=DEGRADE_BURN,
    exclude_min=True, exclude_max=True,
)


class TestBounds:
    @settings(max_examples=50)
    @given(trace=traces)
    def test_load_factor_stays_in_floor_one(self, trace):
        ctl = AimdController()
        for burn in trace:
            ctl.observe(burn)
            assert FLOOR <= ctl.load_factor <= 1.0

    @settings(max_examples=50)
    @given(trace=traces)
    def test_degraded_iff_factor_below_one(self, trace):
        # The serve loop uses `degraded` as the "shed surges first" gate
        # and the factor as the admission multiplier; they must agree.
        ctl = AimdController()
        for burn in trace:
            ctl.observe(burn)
            assert ctl.degraded == (ctl.load_factor < 1.0)

    @settings(max_examples=50)
    @given(trace=traces)
    def test_transitions_alternate(self, trace):
        ctl = AimdController()
        actions = [a for a in map(ctl.observe, trace) if a is not None]
        for i, action in enumerate(actions):
            expected = "degrade" if i % 2 == 0 else "recover"
            assert action == expected


class TestMonotoneUnderSustainedBurn:
    @settings(max_examples=50)
    @given(
        burn=st.floats(min_value=2.0, max_value=100.0),
        windows=st.integers(min_value=1, max_value=40),
    )
    def test_each_burning_window_cuts(self, burn, windows):
        ctl = AimdController()
        previous = ctl.load_factor
        for _ in range(windows):
            ctl.observe(burn)
            assert ctl.load_factor <= previous
            previous = ctl.load_factor
        assert ctl.degraded
        assert ctl.degrade_count == 1  # sustained burn never re-emits
        # Geometric decrease, clamped at the floor.
        assert ctl.load_factor == pytest.approx(
            max(FLOOR, DECREASE**windows)
        )

    @settings(max_examples=25)
    @given(windows=st.integers(min_value=1, max_value=20))
    def test_sustained_burn_reaches_floor(self, windows):
        # 0.5 ** 5 < 0.05: five burning windows reach the floor.
        ctl = AimdController()
        for _ in range(windows + 5):
            ctl.observe(10.0)
        assert ctl.load_factor == FLOOR


class TestHysteresis:
    @settings(max_examples=50)
    @given(trace=st.lists(band_burns, min_size=1, max_size=60))
    def test_band_oscillation_never_flaps(self, trace):
        ctl = AimdController()
        assert ctl.observe(5.0) == "degrade"
        factor = ctl.load_factor
        for burn in trace:
            assert ctl.observe(burn) is None
            assert ctl.load_factor == factor  # band neither cuts nor heals
        assert ctl.degraded
        assert (ctl.degrade_count, ctl.recover_count) == (1, 0)

    @settings(max_examples=50)
    @given(
        clean_runs=st.lists(
            st.integers(min_value=0, max_value=2), min_size=1, max_size=30
        )
    )
    def test_interrupted_clean_streaks_never_recover(self, clean_runs):
        # Fewer than hold_windows consecutive clean windows, then a
        # band window: the streak resets and recovery never starts.
        ctl = AimdController()
        ctl.observe(5.0)
        for run in clean_runs:
            assert run < HOLD_WINDOWS
            for _ in range(run):
                ctl.observe(0.0)
            ctl.observe(1.5)
        assert ctl.degraded
        assert ctl.recover_count == 0
        assert ctl.load_factor == pytest.approx(0.5)

    @settings(max_examples=25)
    @given(cuts=st.integers(min_value=1, max_value=8))
    def test_sustained_clean_eventually_recovers(self, cuts):
        ctl = AimdController()
        for _ in range(cuts):
            ctl.observe(10.0)
        for _ in range(HOLD_WINDOWS + 20):
            ctl.observe(0.0)
        assert not ctl.degraded
        assert ctl.load_factor == 1.0
        assert ctl.recover_count == 1


class TestConfigValidation:
    def test_negative_burn_rejected(self):
        with pytest.raises(ValueError):
            AimdController().observe(-1.0)


class _StubEngine:
    """Duck-typed SLOEngine: scripted burn rates per window."""

    def __init__(self):
        self.window_index = None
        self.rates = {}

    def burn_rates(self):
        return dict(self.rates)


class TestControllerBridge:
    def test_samples_once_per_window(self):
        engine = _StubEngine()
        ctl = OverloadController(engine)
        assert ctl.maybe_update(0.0) is None  # no window yet
        engine.window_index = 0
        engine.rates = {"miss-rate": 10.0}
        assert ctl.maybe_update(0.1) == "degrade"
        factor = ctl.load_factor
        # Same window: no re-observation, no further cut.
        assert ctl.maybe_update(0.2) is None
        assert ctl.load_factor == factor
        engine.window_index = 1
        assert ctl.maybe_update(0.3) is None  # sustained, no transition
        assert ctl.load_factor < factor

    def test_worst_watched_target_wins_and_events_flow(self):
        engine = _StubEngine()
        events = []
        ctl = OverloadController(engine, sink=events.append)
        engine.window_index = 0
        engine.rates = {"miss-rate": 0.1, "shed-rate": 9.0, "power": 99.0}
        assert ctl.maybe_update(0.0) == "degrade"  # power is not watched
        assert events[0].kind is EventKind.DEGRADE
        assert events[0].data["slo"] == "shed-rate"
        summary = ctl.summary()
        assert summary["degrades"] == 1
        assert summary["transitions"][0]["action"] == "degrade"

    def test_effective_depth_and_admission_factor(self):
        ctl = OverloadController(_StubEngine())
        assert ctl.admission_factor() == 1.0
        assert ctl.effective_queue_depth(8) == 8
        ctl.aimd.observe(10.0)  # factor 0.5
        assert ctl.admission_factor() == 2.0
        assert ctl.effective_queue_depth(8) == 4
        for _ in range(10):
            ctl.aimd.observe(10.0)
        assert ctl.effective_queue_depth(8) == 1  # never drops to zero
