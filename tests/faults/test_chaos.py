"""Chaos campaign: matrix construction, scenario survival, reporting."""

import json

import pytest

from repro.faults.chaos import (
    SIM_GROUPS,
    THREADED_GROUPS,
    ScenarioOutcome,
    SurvivalReport,
    build_matrix,
    run_scenario,
)


class TestBuildMatrix:
    def test_default_matrix_meets_campaign_floor(self):
        # The acceptance bar: >= 30 seeded scenarios across the matrix.
        scenarios = build_matrix(scale="default", seeds=3)
        assert len(scenarios) >= 30
        assert len(scenarios) == 3 * (len(SIM_GROUPS) + len(THREADED_GROUPS))

    def test_matrix_is_deterministic(self):
        a = build_matrix(scale="smoke", seeds=2)
        b = build_matrix(scale="smoke", seeds=2)
        assert [s.to_dict() for s in a] == [s.to_dict() for s in b]

    def test_backend_filter(self):
        sim_only = build_matrix(scale="smoke", seeds=1, backends=("sim",))
        assert sim_only
        assert all(s.backend == "sim" for s in sim_only)

    def test_scenario_names_are_unique(self):
        scenarios = build_matrix(scale="smoke", seeds=2)
        labels = [(s.backend, s.name, s.seed) for s in scenarios]
        assert len(set(labels)) == len(labels)

    def test_rejects_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            build_matrix(scale="galactic")

    def test_rejects_bad_seed_count(self):
        with pytest.raises(ValueError):
            build_matrix(scale="smoke", seeds=0)

    def test_scenario_dict_is_json_serializable(self):
        scenario = build_matrix(scale="smoke", seeds=1)[0]
        json.dumps(scenario.to_dict())


class TestRunScenario:
    def test_sim_crash_scenario_survives(self):
        scenario = next(
            s
            for s in build_matrix(scale="smoke", seeds=1, backends=("sim",))
            if s.name == "crash"
        )
        outcome = run_scenario(scenario)
        assert outcome.survived, (outcome.checks, outcome.error)
        assert outcome.checks == {
            "terminates": True,
            "accounts": True,
            "invariants": True,
            "replays": True,
        }
        assert outcome.dispatched == sum(outcome.counts.values())

    def test_threaded_mixed_scenario_survives(self):
        scenario = next(
            s
            for s in build_matrix(scale="smoke", seeds=1, backends=("threaded",))
            if s.name == "mixed"
        )
        outcome = run_scenario(scenario)
        assert outcome.survived, (outcome.checks, outcome.error)
        assert outcome.dispatched == sum(outcome.counts.values())
        # The invariant checker validates simulator state only: a runtime
        # scenario is checked against its ledger, and claims nothing more.
        assert list(outcome.checks) == ["terminates", "accounts", "replays"]


class TestSurvivalReport:
    def outcomes(self):
        scenario = build_matrix(scale="smoke", seeds=1)[0]
        good = ScenarioOutcome(
            scenario=scenario,
            survived=True,
            checks={"terminates": True},
            counts={"ok": 5, "crc_failed": 1, "shed": 0, "aborted": 0},
            dispatched=6,
            wall_s=0.5,
        )
        bad = ScenarioOutcome(
            scenario=scenario,
            survived=False,
            checks={"terminates": True, "replays": False},
            dispatched=6,
            error="",
        )
        return good, bad

    def test_passed_requires_every_scenario(self):
        good, bad = self.outcomes()
        assert SurvivalReport(outcomes=[good]).passed
        assert not SurvivalReport(outcomes=[good, bad]).passed
        assert not SurvivalReport(outcomes=[]).passed

    def test_format_shows_verdicts_and_failed_checks(self):
        good, bad = self.outcomes()
        text = SurvivalReport(outcomes=[good, bad]).format()
        assert "SURVIVED" in text
        assert "FAILED" in text
        assert "replays" in text  # the failed check is named
        assert " disp  ok  crc shed abrt    wall" in text
        assert "   6   5    1    0    0   0.50s" in text

    def test_to_dict_round_trips_through_json(self):
        good, bad = self.outcomes()
        payload = json.loads(json.dumps(SurvivalReport([good, bad]).to_dict()))
        assert payload["scenarios"] == 2
        assert payload["survived"] == 1
        assert payload["passed"] is False


class TestMultiprocessMatrix:
    def test_multiprocess_backend_is_opt_in(self):
        # Default campaign stays sim+threaded (spawn cost); explicit
        # opt-in adds one scenario per MULTIPROCESS_GROUPS entry.
        from repro.faults.chaos import MULTIPROCESS_GROUPS

        default = build_matrix(scale="smoke", seeds=1)
        assert all(s.backend != "multiprocess" for s in default)
        mp = build_matrix(scale="smoke", seeds=2, backends=("multiprocess",))
        assert len(mp) == 2 * len(MULTIPROCESS_GROUPS)
        assert all(s.backend == "multiprocess" for s in mp)

    def test_multiprocess_pool_outlives_death_budget(self):
        # Replay determinism requires a survivor: the pool is always one
        # worker larger than the number of armed death faults.
        from repro.faults.chaos import _SCALES

        for scale in ("smoke", "default"):
            per_kind = _SCALES[scale]["faults_per_kind"]
            mp = build_matrix(scale=scale, seeds=1, backends=("multiprocess",))
            assert all(s.num_workers == max(2, per_kind + 1) for s in mp)

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown chaos backend"):
            build_matrix(scale="smoke", seeds=1, backends=("sim", "gpu"))

    def test_multiprocess_task_exc_scenario_survives(self):
        scenario = next(
            s
            for s in build_matrix(
                scale="smoke", seeds=1, backends=("multiprocess",)
            )
            if s.name == "task-exc"
        )
        outcome = run_scenario(scenario)
        assert outcome.survived, (outcome.checks, outcome.error)
        assert outcome.dispatched == sum(outcome.counts.values())


class TestLedgerFingerprint:
    @staticmethod
    def _ledger(states):
        from repro.faults import SubframeLedger

        ledger = SubframeLedger()
        for index, state in enumerate(states):
            ledger.dispatch(index, 2)
            ledger.resolve(index, state)
        return ledger

    def test_same_counts_different_assignment_differ(self):
        # The replay blind spot this closes: identical terminal-state
        # *counts* but a different per-subframe assignment must not
        # fingerprint as the same run.
        from repro.faults import TerminalState
        from repro.faults.chaos import ledger_fingerprint

        a = self._ledger(
            [TerminalState.OK, TerminalState.SHED, TerminalState.ABORTED]
        )
        b = self._ledger(
            [TerminalState.OK, TerminalState.ABORTED, TerminalState.SHED]
        )
        assert ledger_fingerprint(a)["counts"] == ledger_fingerprint(b)["counts"]
        assert ledger_fingerprint(a) != ledger_fingerprint(b)

    def test_identical_histories_fingerprint_identically(self):
        from repro.faults import TerminalState
        from repro.faults.chaos import ledger_fingerprint

        states = [TerminalState.OK, TerminalState.CRC_FAILED, TerminalState.OK]
        assert ledger_fingerprint(self._ledger(states)) == ledger_fingerprint(
            self._ledger(states)
        )

    def test_fingerprint_is_json_serializable(self):
        from repro.faults import TerminalState
        from repro.faults.chaos import ledger_fingerprint

        json.dumps(ledger_fingerprint(self._ledger([TerminalState.OK])))


class TestChaosCommand:
    def test_the_smoke_campaign_survives_on_one_matrix(self, capsys, monkeypatch):
        """``repro chaos`` builds its matrix once, to check the options,
        and runs that matrix."""
        from repro.cli import main
        from repro.faults import chaos

        built = []
        build = chaos.build_matrix

        def counted(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(chaos, "build_matrix", counted)
        argv = ["chaos", "--scale", "smoke", "--seeds", "1", "--backend", "sim"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert len(built) == 1 and len(built[0]) == len(SIM_GROUPS) == 6
        assert "6/6 scenarios survived" in out
        assert "FAILED" not in out
