"""Integration tests for the experiment drivers (scaled-down runs)."""

import numpy as np
import pytest

from repro.experiments.estimation import run_estimation_experiment
from repro.experiments.report import (
    format_estimation,
    format_series,
    format_table1,
    format_table2,
    format_workload_summary,
)
from repro.experiments.workload import collect_workload_trace
from repro.sim.cost import CostModel
from repro.uplink.parameter_model import RandomizedParameterModel


@pytest.fixture(scope="module")
def study(reproduction):
    """The session's one scaled power study (see conftest.py), shared by
    all table/figure assertions."""
    return reproduction.study


@pytest.fixture(scope="module")
def estimation(reproduction):
    return reproduction.estimation


class TestWorkloadTrace:
    def test_collect_shapes(self):
        model = RandomizedParameterModel(total_subframes=2000, seed=0)
        trace = collect_workload_trace(model)
        assert trace.subframe_indices.size == 80
        assert trace.num_users.shape == trace.total_prb.shape

    def test_figure_7_envelope(self):
        """Users vary between 1 and 10 across the run."""
        model = RandomizedParameterModel(total_subframes=20_000, seed=0)
        trace = collect_workload_trace(model)
        assert trace.num_users.max() == 10
        assert trace.num_users.min() <= 3
        assert len(np.unique(trace.num_users)) >= 6

    def test_figure_8_envelope(self):
        """Total PRBs bounded by 200; per-user max large, min small."""
        model = RandomizedParameterModel(total_subframes=20_000, seed=0)
        trace = collect_workload_trace(model)
        assert trace.total_prb.max() <= 200
        assert trace.max_prb.max() >= 150
        assert trace.min_prb.min() == 2
        assert np.all(trace.max_prb >= trace.min_prb)

    def test_figure_9_envelope(self):
        """Layers span 1..4, reaching 4 at mid-run and 1 at the edges."""
        model = RandomizedParameterModel(total_subframes=20_000, seed=0)
        trace = collect_workload_trace(model)
        assert trace.max_layers.max() == 4
        assert trace.min_layers.min() == 1
        mid = trace.subframe_indices.size // 2
        assert trace.min_layers[mid] == 4  # peak: every user has 4 layers

    def test_summary_and_format(self):
        model = RandomizedParameterModel(total_subframes=2000, seed=1)
        trace = collect_workload_trace(model)
        text = format_workload_summary(trace)
        assert "users per subframe" in text
        assert "layers" in text


class TestEstimation:
    def test_error_statistics_in_paper_band(self, estimation):
        """Fig. 12: small errors, dominated by underestimation."""
        assert estimation.mean_absolute_error() < 0.03  # paper: 1.2 %
        assert estimation.max_underestimation() < 0.08  # paper: 5.4 %
        assert estimation.max_underestimation() >= estimation.max_overestimation()

    def test_triangle_shape(self, estimation):
        """Activity ramps up to ~1 mid-run and back down, window by window.
        (How far down depends on the scale: the last window sits one
        probability step, 400/N of the ramp, above the floor.)"""
        measured = estimation.measured
        peak = measured.argmax()
        assert 0.3 < peak / measured.size < 0.7
        assert measured.max() > 0.9
        assert measured[0] < 0.35
        assert np.all(np.diff(measured[: peak + 1]) > 0)
        assert np.all(np.diff(measured[peak:]) < 0)

    def test_estimated_tracks_measured(self, estimation):
        corr = np.corrcoef(estimation.measured, estimation.estimated)[0, 1]
        assert corr > 0.99

    def test_format(self, estimation):
        text = format_estimation(estimation)
        assert "max underestimation" in text
        assert "paper: 5.4%" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            # Fewer subframes than one 200-subframe averaging window.
            run_estimation_experiment(num_subframes=100)


class TestPowerStudy:
    def test_policy_ordering_matches_paper(self, study):
        """Table II's ordering: NAP+IDLE < NAP < IDLE < NONAP in watts;
        gating below all."""
        watts = [
            study.mean_power(name)
            for name in ("PowerGating", "NAP+IDLE", "NAP", "IDLE", "NONAP")
        ]
        assert watts == sorted(watts) and len(set(watts)) == len(watts), watts

    def test_mean_powers_near_paper_operating_points(self, study):
        """Absolute watts within a loose band of Table II."""
        assert study.mean_power("NONAP") == pytest.approx(25.0, abs=1.5)
        assert study.mean_power("IDLE") == pytest.approx(20.7, abs=1.5)
        assert study.mean_power("NAP") == pytest.approx(20.5, abs=1.5)
        assert study.mean_power("NAP+IDLE") == pytest.approx(19.9, abs=1.5)
        assert study.mean_power("PowerGating") == pytest.approx(18.5, abs=1.5)

    def test_table1_reductions(self, study):
        rows = {name: red for name, _, red in study.table1()}
        assert rows["NONAP"] == 0.0
        assert 0.25 < rows["IDLE"] < 0.5  # paper: 39 %
        assert rows["NAP"] > rows["IDLE"] - 0.05  # paper: 41 % vs 39 %
        assert rows["NAP+IDLE"] > rows["NAP"]  # paper: 46 %

    def test_table2_relative_columns(self, study):
        rows = {name: (vs_nonap, vs_idle) for name, _, vs_nonap, vs_idle in study.table2()}
        assert rows["NONAP"][0] == 0.0
        assert rows["IDLE"][1] == 0.0
        assert rows["PowerGating"][0] < -0.2  # paper: -26 %
        assert rows["PowerGating"][1] < -0.05  # paper: -11 %

    def test_fig13_active_cores_vary(self, study):
        history = study.runs["NAP"].estimated_active_cores
        assert history is not None
        assert history.min() >= 2  # the +2 over-provisioning floor
        assert history.max() >= 60  # near-full machine at peak
        assert len(np.unique(history)) > 10  # "changes rapidly"

    def test_fig14_nap_beats_nonap_most_at_low_load(self, study):
        """The NONAP-NAP gap is largest at low load (paper: 6-7 W) and
        smallest at peak (paper: ~1 W)."""
        nonap = study.runs["NONAP"].power.total_w
        nap = study.runs["NAP"].power.total_w
        gap = nonap - nap
        n = gap.size
        low_gap = gap[: n // 5].mean()
        peak_gap = gap[2 * n // 5 : 3 * n // 5].mean()
        assert low_gap > peak_gap
        assert low_gap > 3.0
        assert peak_gap < 2.5

    def test_fig16_gating_wins_most_at_low_load(self, study):
        """PowerGating vs IDLE exceeds 20 % at low load (paper: >24 %)."""
        idle = study.runs["IDLE"].power.total_w
        gated = study.gated_power_w
        n = gated.size
        low = slice(0, n // 5)
        relative = 1.0 - gated[low].mean() / idle[low].mean()
        assert relative > 0.15

    def test_gating_trace_consistency(self, study):
        assert np.all(study.gating.powered >= study.gating.active)
        assert np.all(study.gating.powered % 8 == 0)

    def test_formats(self, study):
        t1 = format_table1(study)
        t2 = format_table2(study)
        assert "Table I" in t1 and "NAP+IDLE" in t1
        assert "PowerGating" in t2

    def test_format_series_empty(self):
        assert "(empty)" in format_series("x", [], [])


class TestPowerStudyPinned:
    """The whole study at 60 subframes, seed 0, as literals.

    Everything ``run_power_study`` reports is a pure function of the cost
    model, the scheduler, the four policies, the power model and the seed;
    the other power-study tests assert orderings and bands, and ``perf/``
    compares watts only with themselves. A change that means to move these
    re-captures them and says why.
    """

    #: policy -> (tasks_executed, steals)
    COUNTS = {
        "NONAP": (7_980, 7_090),
        "IDLE": (7_980, 5_527),
        "NAP": (7_980, 4_144),
        "NAP+IDLE": (7_978, 3_685),
    }
    #: Table II rows, mean total watts.
    MEAN_POWER_W = {
        "NONAP": 24.094479305262976,
        "IDLE": 17.10797821813326,
        "NAP": 16.609295934382818,
        "NAP+IDLE": 16.309876136292964,
        "PowerGating": 13.669876136292961,
    }

    def test_seed_zero_study_reproduces_counts_and_watts(self):
        from repro.experiments.power_study import run_power_study

        study = run_power_study(num_subframes=60, seed=0)
        counts = {
            name: (run.sim.tasks_executed, run.sim.steals)
            for name, run in study.runs.items()
        }
        assert counts == self.COUNTS
        watts = {name: total_w for name, total_w, _, _ in study.table2()}
        assert list(watts) == list(self.MEAN_POWER_W)
        assert watts == pytest.approx(self.MEAN_POWER_W, rel=1e-12)
