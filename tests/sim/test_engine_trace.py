"""Tests for the event engine and occupancy trace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventEngine
from repro.sim.trace import CoreState, OccupancyTrace


class TestEventEngine:
    def test_events_run_in_time_order(self):
        engine = EventEngine()
        order = []
        engine.schedule(30, lambda t: order.append(("c", t)))
        engine.schedule(10, lambda t: order.append(("a", t)))
        engine.schedule(20, lambda t: order.append(("b", t)))
        engine.run_until_idle()
        assert order == [("a", 10), ("b", 20), ("c", 30)]

    def test_ties_break_in_scheduling_order(self):
        engine = EventEngine()
        order = []
        engine.schedule(5, lambda t: order.append("first"))
        engine.schedule(5, lambda t: order.append("second"))
        engine.run_until_idle()
        assert order == ["first", "second"]

    def test_events_can_schedule_events(self):
        engine = EventEngine()
        seen = []

        def chain(t):
            seen.append(t)
            if t < 50:
                engine.schedule_in(10, chain)

        engine.schedule(0, chain)
        engine.run_until_idle()
        assert seen == [0, 10, 20, 30, 40, 50]

    def test_hard_limit_leaves_future_events(self):
        engine = EventEngine()
        seen = []
        engine.schedule(10, seen.append)
        engine.schedule(100, seen.append)
        engine.run_until_idle(hard_limit=50)
        assert seen == [10]
        assert engine.now == 50

    def test_cannot_schedule_in_past(self):
        engine = EventEngine()
        engine.schedule(10, lambda t: None)
        engine.run_until_idle()
        with pytest.raises(ValueError):
            engine.schedule(5, lambda t: None)
        with pytest.raises(ValueError):
            engine.schedule_in(-1, lambda t: None)


class TestOccupancyTrace:
    def _trace(self, window=100, windows=5, workers=2):
        return OccupancyTrace(
            window_cycles=window, num_windows=windows, num_workers=workers
        )

    def test_single_window_segment(self):
        trace = self._trace()
        trace.add_segment(CoreState.COMPUTE, 10, 60)
        assert trace.occupancy_cycles(CoreState.COMPUTE)[0] == 50
        assert trace.occupancy_cycles(CoreState.COMPUTE)[1:].sum() == 0

    def test_segment_split_across_windows(self):
        trace = self._trace()
        trace.add_segment(CoreState.SPIN, 50, 350)
        cycles = trace.occupancy_cycles(CoreState.SPIN)
        assert cycles.tolist() == [50, 100, 100, 50, 0]

    def test_segment_clipped_to_horizon(self):
        trace = self._trace()
        trace.add_segment(CoreState.NAP, 450, 900)
        assert trace.occupancy_cycles(CoreState.NAP).tolist() == [0, 0, 0, 0, 50]

    def test_zero_length_segment_ignored(self):
        trace = self._trace()
        trace.add_segment(CoreState.COMPUTE, 42, 42)
        assert trace.total_cycles(CoreState.COMPUTE) == 0

    def test_segment_entirely_past_horizon_ignored(self):
        """A segment at/past the horizon must be dropped, not IndexError.

        Regression: clamping mapped [500, 600) on a 5x100 trace to
        [500, 500), and the single-window branch then indexed window 5.
        """
        trace = self._trace()  # horizon = 500 cycles
        trace.add_segment(CoreState.SPIN, 500, 600)
        trace.add_segment(CoreState.SPIN, 750, 900)
        assert trace.total_cycles(CoreState.SPIN) == 0

    def test_segment_starting_at_horizon_boundary_ignored(self):
        trace = self._trace()
        trace.add_segment(CoreState.NAP, 500, 500)
        assert trace.total_cycles(CoreState.NAP) == 0

    def test_rejects_negative_segment(self):
        with pytest.raises(ValueError):
            self._trace().add_segment(CoreState.COMPUTE, 10, 5)

    def test_activity_definition(self):
        """Eq. 2: compute cycles over total worker cycles per window."""
        trace = self._trace(window=100, windows=2, workers=2)
        trace.add_segment(CoreState.COMPUTE, 0, 100)  # one core fully busy
        activity = trace.activity()
        assert activity[0] == pytest.approx(0.5)
        assert activity[1] == 0.0

    def test_conservation_check(self):
        trace = self._trace(window=100, windows=1, workers=2)
        trace.add_segment(CoreState.COMPUTE, 0, 100)
        assert not trace.check_conservation()
        trace.add_segment(CoreState.SPIN, 0, 100)
        assert trace.check_conservation()

    def test_validation(self):
        with pytest.raises(ValueError):
            OccupancyTrace(window_cycles=0, num_windows=1, num_workers=1)


@given(
    segments=st.lists(
        st.tuples(st.integers(0, 499), st.integers(0, 499)), min_size=1, max_size=30
    )
)
@settings(max_examples=50, deadline=None)
def test_property_binning_preserves_total(segments):
    """Total binned cycles equal the summed segment lengths (within horizon)."""
    trace = OccupancyTrace(window_cycles=100, num_windows=5, num_workers=1)
    expected = 0
    for a, b in segments:
        lo, hi = min(a, b), max(a, b)
        trace.add_segment(CoreState.COMPUTE, lo, hi)
        expected += hi - lo
    assert trace.total_cycles(CoreState.COMPUTE) == pytest.approx(expected)
