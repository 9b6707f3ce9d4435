"""Closed-form power bounds: an oracle for the watts the study reports.

``TestPowerStudyPinned`` compares the study's watts with literals captured
from itself. These compare them with arithmetic: the model's calibration
(§V-B, Tables I-II), written out again below apart from ``repro.power``,
applied to three sums read off each run's occupancy trace, all in
core-cycles over the horizon ``T`` of ``P`` workers:

* ``C``, the cycles computed. With every subframe finished it is the
  workload's ``ΣW``, the sum of every user's cycles from the cost model
  alone (Eqs. 1-2). The study cuts its horizon at the last subframe, so
  there ``ΣW − (work of the unfinished subframes) ≤ C ≤ ΣW``.
* ``D``, the cycles disabled. Eq. 5's target disables ``P − min(P,
  target)`` workers for each subframe, and the last target holds to the
  horizon. A worker finishes its task before it is disabled, and one that
  a rising target re-enables comes back at its next wake check, half a
  wake period later. So ``D`` is at most that count times the cycles each
  target holds for, plus half a wake period per re-enabled worker.
* ``PT − C − D``, the idle cycles that are not disabled. NONAP and NAP
  spin in all of them, so their run-mean dynamic power is exactly
  ``(COMPUTE·C + DISABLED·D + SPIN·(PT − C − D)) / T``; for NONAP, with
  ``D = 0``, that is ``P·SPIN + (COMPUTE − SPIN)·C/T``. IDLE and NAP+IDLE
  nap reactively in some of them, at a price between DISABLED and SPIN,
  so that formula is their ceiling and pricing every idle cycle as
  DISABLED is their floor.

On top of that, each window's total is base + dynamic + leakage, and the
thermal loop bounds the leakage (:func:`leakage_bracket`); the gated row
is Eqs. 6-9 on NAP+IDLE's Eq. 5 targets (:func:`gated_watts`); and serve's
live watts are the IDLE steady state of the same price table.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.power_study import WINDOW_S, run_power_study
from repro.faults.accounting import TerminalState
from repro.phy.params import ALL_MODULATIONS
from repro.power import model
from repro.power.estimator import calibrate_from_cost_model
from repro.power.gating import PowerGatingModel
from repro.power.governor import POLICY_NAMES, NapPolicy, make_policy
from repro.power.model import PowerModel, PowerTrace, power_from_busy_fraction
from repro.sim.cost import CostModel, MachineSpec
from repro.sim.machine import MachineSimulator, SimConfig, SimResult
from repro.sim.trace import CoreState, OccupancyTrace
from repro.uplink.parameter_model import RandomizedParameterModel, TraceParameterModel
from repro.uplink.user import UserParameters

#: The model's calibration: base power and the per-core state prices (W).
BASE_W = 14.0
COMPUTE_W, SPIN_W, NAP_W, DISABLED_W = 0.188, 0.158, 0.024, 0.008
#: The thermal loop: leakage slope (W/°C), die-to-ambient resistance
#: (°C/W) and RC time constant (s).
LEAK_W_PER_C, R_C_PER_W, TAU_S = 0.09, 1.5, 60.0
#: Eqs. 6-9: cores, cores per power domain, static and toggle power per
#: core (W), and Eq. 7's reach on either side of a subframe.
CORES, GROUP, STATIC_W, TOGGLE_W, REACH = 64, 8, 0.055, 0.015, 2
#: Every equality holds to this relative tolerance (measured: 2e-16).
RTOL = 1e-12
#: The thermal loop carries absolute die temperatures (66-90 °C), so each
#: window's leakage is off by a few ulps of those times k: below this (W)
#: over a few hundred windows.
LEAK_ATOL_W = 1e-12
#: The policies whose idle workers nap reactively.
REACTIVE = {"IDLE", "NAP+IDLE"}
#: The power study's draw (``repro power-study``, seed 1, 400 subframes).
STUDY_SEED, STUDY_SUBFRAMES = 1, 400


@dataclass
class PolicyWatts:
    """What the oracle reads of one policy's run."""

    name: str
    sim: SimResult
    power: PowerTrace
    #: Eq. 5's raw target per subframe (NAP family), else None.
    targets: np.ndarray | None
    #: ΣW of every subframe, and of those that did not end ``ok``.
    work: float
    unfinished: float


def subframe_work(cost, subframes) -> np.ndarray:
    return np.array([sum(cost.user_cycles(u) for u in users) for users in subframes])


def policy_watts(name, sim, power, targets, work) -> PolicyWatts:
    done = [sim.ledger.state_of(i) is TerminalState.OK for i in range(work.size)]
    return PolicyWatts(
        name, sim, power, targets, float(work.sum()), float(work[~np.array(done)].sum())
    )


def disabled_ceiling(run: PolicyWatts) -> float:
    """``Σ (P − min(P, target))`` × the cycles each target holds for, plus
    half a wake period for each worker a rising target re-enables."""
    trace, machine = run.sim.trace, run.sim.machine
    workers, delta = trace.num_workers, machine.subframe_period_cycles
    held = np.full(run.targets.size, delta)
    held[-1] = trace.window_cycles * trace.num_windows - (run.targets.size - 1) * delta
    active = np.minimum(workers, run.targets)
    re_enabled = np.maximum(0, np.diff(active, prepend=workers)).sum()
    wake_period = round(run.sim.config.wake_period_s * machine.clock_hz)
    return float(((workers - active) * held).sum() + re_enabled * (wake_period // 2))


def leakage_bracket(power: PowerTrace) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on each window's leakage from the dynamic power before it.

    With ``x`` the die's temperature above its base-power point, each
    window moves ``x`` by ``α = window/τ`` of the way to ``R·(dynamic +
    k·x)``, that is ``x ← (1 − β)·x + β·R·dynamic/(1 − kR)`` with ``β =
    α(1 − kR)``, from ``x = 0``. So window ``w``'s leakage ``k·x`` is
    ``kR/(1 − kR)`` times a weighted mean of the dynamic power of windows
    ``0 … w−1`` whose weights sum to ``1 − (1 − β)^w``: at most
    ``kR/(1 − kR)`` (0.156) times the running maximum of dynamic power.
    """
    dynamic = power.dynamic_w
    kr = LEAK_W_PER_C * R_C_PER_W
    beta = power.window_s / TAU_S * (1.0 - kr)
    scale = kr / (1.0 - kr) * (1.0 - (1.0 - beta) ** np.arange(dynamic.size))
    lowest = np.concatenate([[0.0], np.minimum.accumulate(dynamic[:-1])])
    highest = np.concatenate([[0.0], np.maximum.accumulate(dynamic[:-1])])
    return scale * lowest, scale * highest


def violations(run: PolicyWatts) -> list[str]:
    """Every bound of the module docstring that ``run`` breaks."""
    found = []
    trace = run.sim.trace
    workers, horizon = trace.num_workers, trace.window_cycles * trace.num_windows
    computed = trace.total_cycles(CoreState.COMPUTE)
    disabled = trace.total_cycles(CoreState.DISABLED)
    idle = workers * horizon - computed
    if not run.work - run.unfinished <= computed <= run.work:
        found.append(f"{run.name}: C = {computed} outside its ΣW bounds")
    if run.targets is None and disabled:
        found.append(f"{run.name}: disabled cycles without a governor")
    if run.targets is not None and disabled > disabled_ceiling(run):
        found.append(f"{run.name}: D = {disabled} above the Eq. 5 ceiling")
    dynamic = run.power.dynamic_w.mean()
    ceiling = (
        COMPUTE_W * computed + DISABLED_W * disabled + SPIN_W * (idle - disabled)
    ) / horizon
    floor = (COMPUTE_W * computed + DISABLED_W * idle) / horizon
    if run.name in REACTIVE:
        if not floor * (1 - RTOL) <= dynamic <= ceiling * (1 + RTOL):
            found.append(f"{run.name}: dynamic {dynamic} W not in [{floor}, {ceiling}]")
    elif not math.isclose(dynamic, ceiling, rel_tol=RTOL):
        found.append(f"{run.name}: dynamic {dynamic} W != {ceiling} W")
    power = run.power
    summed = BASE_W + power.dynamic_w + power.leakage_w
    if not np.allclose(power.total_w, summed, rtol=RTOL, atol=0):
        found.append(f"{run.name}: total != base + dynamic + leakage")
    low, high = leakage_bracket(power)
    leak = power.leakage_w
    outside = np.flatnonzero((leak < low - LEAK_ATOL_W) | (leak > high + LEAK_ATOL_W))
    if outside.size:
        found.append(f"{run.name}: leakage outside its bracket in windows {outside}")
    return found


def gated_watts(targets, napidle_w, window_s, period_s):
    """Eqs. 6-9 from their definitions, then Fig. 16: each power window
    loses the mean saving of the subframes inside it."""
    active = np.minimum(CORES, -(-targets // GROUP) * GROUP)  # Eq. 6
    powered = np.array(  # Eq. 7
        [active[max(0, i - REACH) : i + REACH + 1].max() for i in range(active.size)]
    )
    toggles = np.abs(np.diff(powered, prepend=powered[:1]))  # Eq. 8
    saving = (CORES - powered) * STATIC_W - toggles * TOGGLE_W  # Eq. 9
    per_window = round(window_s / period_s)
    gated = np.array(napidle_w, dtype=np.float64)
    for w in range(gated.size):
        inside = saving[w * per_window : (w + 1) * per_window]
        if inside.size:
            gated[w] -= inside.mean()
    return saving, gated


def gating_violations(targets, napidle_w, window_s, period_s, saving, gated):
    expected = gated_watts(targets, napidle_w, window_s, period_s)
    found = []
    if not np.allclose(saving, expected[0], rtol=RTOL, atol=1e-12):
        found.append("PowerGating: Eq. 9 savings differ")
    if not np.allclose(gated, expected[1], rtol=RTOL, atol=0):
        found.append("PowerGating: gated watts differ")
    return found


# ------------------------------------------------------------ the study
def study_violations(num_subframes, seed) -> tuple[list[str], list[PolicyWatts]]:
    """Run the power study and hold all five rows to the oracle."""
    study = run_power_study(num_subframes=num_subframes, seed=seed)
    cost = CostModel()
    draw = RandomizedParameterModel(total_subframes=num_subframes, seed=seed)
    work = subframe_work(cost, draw.iter_subframes(num_subframes))
    runs = [
        policy_watts(name, run.sim, run.power, run.estimated_active_cores, work)
        for name, run in study.runs.items()
    ]
    found = [v for run in runs for v in violations(run)]
    napidle = study.runs["NAP+IDLE"]
    found += gating_violations(
        napidle.estimated_active_cores,
        napidle.power.total_w,
        WINDOW_S,
        cost.machine.subframe_period_s,
        study.gating.saving_w,
        study.gated_power_w,
    )
    return found, runs


def test_the_study_meets_every_bound():
    """The study's draw. Its horizon ends at the last subframe, which
    leaves work undone: ΣW is 0.32 % (NONAP) to 0.57 % (NAP+IDLE) above
    C, within the work of the subframes that did not finish."""
    found, runs = study_violations(STUDY_SUBFRAMES, STUDY_SEED)
    print()
    for run in runs:
        computed = run.sim.trace.total_cycles(CoreState.COMPUTE)
        line = f"{run.name:<8} ΣW/C − 1 = {run.work / computed - 1:.2%}"
        if run.targets is not None:
            disabled = run.sim.trace.total_cycles(CoreState.DISABLED)
            line += f", 1 − D/ceiling = {1 - disabled / disabled_ceiling(run):.1e}"
        print(line)
    assert not found, found


@pytest.mark.slow
def test_the_default_study_meets_every_bound():
    """``run_power_study()`` as it runs by default: 6,800 subframes, seed
    0, 340 power windows."""
    found, _ = study_violations(6_800, 0)
    assert not found, found


# Mutations: the oracle has to be able to fail. Each changes one value, on
# a short study: a price table entry, the leakage slope, or the gating
# model's default group size.
MUTATION_SUBFRAMES = 60


def test_oracle_holds_unmutated():
    assert not study_violations(MUTATION_SUBFRAMES, STUDY_SEED)[0]


def test_oracle_fails_when_spin_costs_compute(monkeypatch):
    prices = model.STATE_POWER_W
    monkeypatch.setitem(prices, CoreState.SPIN, prices[CoreState.COMPUTE])
    found, _ = study_violations(MUTATION_SUBFRAMES, STUDY_SEED)
    assert any(v.startswith("NONAP: dynamic") for v in found), found


def test_oracle_fails_when_leakage_is_dropped(monkeypatch):
    monkeypatch.setattr(model, "LEAKAGE_W_PER_C", 0.0)
    found, _ = study_violations(MUTATION_SUBFRAMES, STUDY_SEED)
    assert any("leakage outside" in v for v in found), found


def test_oracle_fails_when_gating_groups_hold_four(monkeypatch):
    monkeypatch.setattr(PowerGatingModel.__init__, "__defaults__", (4,))
    found, _ = study_violations(MUTATION_SUBFRAMES, STUDY_SEED)
    assert any(v.startswith("PowerGating") for v in found), found


# ------------------------------------------------------------ small draws
@functools.lru_cache(maxsize=None)
def machine(workers: int):
    cost = CostModel(machine=MachineSpec(num_cores=workers + 2, num_workers=workers))
    return cost, calibrate_from_cost_model(cost)


def draw_violations(workers, subframes) -> list[str]:
    """Every policy on ``subframes``, priced in 10 ms windows, with a
    drain that lets every subframe finish: then C is ΣW exactly."""
    cost, estimator = machine(workers)
    work = subframe_work(cost, subframes)
    window_s, period_s = 0.01, cost.machine.subframe_period_s
    found = []
    for name in POLICY_NAMES:
        policy = make_policy(name, workers, estimator)
        config = SimConfig(window_s=window_s, drain_margin_s=1.0)
        sim = MachineSimulator(cost, policy=policy, config=config)
        result = sim.run(TraceParameterModel(subframes), num_subframes=len(subframes))
        assert result.ledger.counts()["ok"] == len(subframes)  # nothing cut off
        power = PowerModel().evaluate(result.trace, cost.machine.clock_hz)
        targets = None
        if isinstance(policy, NapPolicy):
            targets = np.array(policy.active_cores_history, dtype=np.int64)
        found += violations(policy_watts(name, result, power, targets, work))
    gating_model = PowerGatingModel()
    found += gating_violations(
        targets,
        power.total_w,
        window_s,
        period_s,
        gating_model.evaluate(targets).saving_w,
        gating_model.apply_to_power(power.total_w, window_s, targets, period_s),
    )
    return found


def users_strategy(max_users):
    return st.lists(
        st.builds(
            UserParameters,
            user_id=st.integers(0, 9),
            num_prb=st.integers(1, 100).map(lambda n: 2 * n),
            layers=st.integers(1, 4),
            modulation=st.sampled_from(list(ALL_MODULATIONS)),
        ),
        max_size=max_users,
    )


small_draws = dict(
    workers=st.sampled_from([6, 62]),
    subframes=st.lists(users_strategy(4), min_size=1, max_size=3),
)


@given(**small_draws)
@settings(max_examples=25)
def test_small_draws_meet_every_bound(workers, subframes):
    assert not draw_violations(workers, subframes)


@pytest.mark.slow
@given(**small_draws)
@settings(max_examples=2000)
def test_small_draws_meet_every_bound_long(workers, subframes):
    assert not draw_violations(workers, subframes)


# ------------------------------------------------------------ serve's watts
@given(workers=st.integers(1, 64), busy=st.integers(0, 64 * 1_000))
@settings(max_examples=50)
def test_serve_watts_are_the_idle_steady_state(workers, busy):
    """``power_from_busy_fraction(a, P)`` is base power plus the dynamic
    power of an IDLE window whose cores compute a share ``a`` of it and
    nap reactively for the rest."""
    window = 1_000
    computed = min(busy, workers * window)
    trace = OccupancyTrace(window_cycles=window, num_windows=1, num_workers=workers)
    for core in range(workers):
        share = min(window, max(0, computed - core * window))
        trace.add_segment(CoreState.COMPUTE, 0, share)
        trace.add_segment(CoreState.NAP, share, window)
    busy_fraction = computed / (workers * window)
    watts = power_from_busy_fraction(busy_fraction, workers)
    assert watts == pytest.approx(
        BASE_W + PowerModel().dynamic_power(trace)[0], rel=RTOL
    )
    expected = BASE_W + workers * (
        busy_fraction * COMPUTE_W + (1 - busy_fraction) * NAP_W
    )
    assert watts == pytest.approx(expected, rel=RTOL)
