"""Serve-loop behavior tests: backpressure, admission shedding, tracing.

These drive :func:`repro.serve.serve` with a cheap fake processor (an
empty :class:`SubframeResult` after a short sleep) so the tests exercise
the *control plane* — queueing, shedding, ledger accounting, reporting —
without paying for PHY decoding.
"""

import json
import time
from typing import get_type_hints, is_typeddict

import pytest

from repro.faults.accounting import TerminalState
from repro.serve import (
    ServeConfig,
    ServeReport,
    ServeResult,
    serve,
    validate_serve_report,
)
from repro.uplink.serial import SubframeResult


def _slow_fake_processor(delay_s):
    def process(subframe):
        time.sleep(delay_s)
        return SubframeResult(subframe_index=subframe.subframe_index)

    return process


def _config(**overrides):
    base = dict(
        cells=1,
        subframes=40,
        arrival="constant",
        max_users=4,
        backend="vectorized",
        pace=False,
        queue_depth=1,
        max_activity=100.0,
        seed=3,
        keep_results=False,
        processor=_slow_fake_processor(0.003),
    )
    base.update(overrides)
    return ServeConfig(**base)


class TestBackpressure:
    def test_shed_policy_drops_at_full_queue(self):
        result = serve(_config(backpressure="shed"))
        assert result.ok
        report = result.report
        assert report["backpressure_hits"] > 0
        assert report["terminal_counts"]["shed"] > 0
        # Nothing is lost: every arrival reached a terminal state.
        assert report["dispatched"] == 40
        assert sum(report["terminal_counts"].values()) == 40

    def test_block_policy_never_sheds(self):
        result = serve(_config(backpressure="block"))
        assert result.ok
        report = result.report
        assert report["terminal_counts"]["shed"] == 0
        assert report["shed_users"] == 0
        assert report["dispatched"] == 40
        assert report["admitted_users"] == report["offered_users"]

    def test_queue_depth_bounds_inflight(self):
        depth = 2
        result = serve(_config(backpressure="shed", queue_depth=depth))
        assert result.ok
        for cell in result.report["per_cell"]:
            assert cell["max_queue_depth"] <= depth


    def test_block_waits_for_the_degraded_depth(self, monkeypatch):
        """Under ``--adaptive`` a degraded controller shrinks the queue
        depth, and ``block`` must wait for that depth, not the static one
        (docs/serving.md, "Adaptive admission")."""
        from repro.serve import loop

        class Degraded(loop.OverloadController):
            """Pinned at load factor 0.25: depth 8 becomes 2."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.aimd.load_factor = 0.25
                self.aimd.degraded = True

            def maybe_update(self, t):
                return None

        monkeypatch.setattr(loop, "OverloadController", Degraded)
        result = serve(
            _config(
                subframes=60, backend="threaded", workers=2, queue_depth=8,
                backpressure="block", adaptive=True,
            )
        )
        assert result.ok
        report = result.report
        assert report["terminal_counts"]["shed"] == 0
        assert report["backpressure_hits"] > 0
        assert report["per_cell"][0]["max_queue_depth"] <= 2


class TestAdmissionShedding:
    def test_zero_budget_sheds_every_subframe(self):
        result = serve(
            _config(backpressure="block", max_activity=1e-9, processor=None)
        )
        assert result.ok
        report = result.report
        assert report["terminal_counts"]["shed"] == 40
        assert report["shed_users"] == report["offered_users"]
        assert report["served_users"] == 0
        assert report["faults"]["shedding_engaged"] is True

    def test_default_budget_admits_light_load(self):
        result = serve(_config(backpressure="block", max_activity=0.9))
        assert result.ok
        assert result.report["shed_users"] == 0


class TestReport:
    def test_report_passes_schema_validation(self):
        result = serve(_config())
        assert validate_serve_report(result.report) == []

    def test_report_is_json_serializable(self):
        result = serve(_config(subframes=10))
        assert json.loads(json.dumps(result.report))["schema"] == "repro-serve/2"

    def test_slo_block_uses_pr8_schema(self):
        result = serve(_config(subframes=10))
        assert result.report["slo"]["schema"] == "repro-slo/1"

    def test_latency_objective_follows_the_cadence(self):
        """The deadline is IN_FLIGHT_BOUND periods of the run's own
        ``--delta``, not of the paper's 5 ms."""
        result = serve(_config(subframes=10, delta_s=0.002))
        targets = {t["name"]: t for t in result.report["slo"]["targets"]}
        assert targets["latency-p99"]["objective"] == 6_000_000

    def test_multi_cell_ids_never_collide(self):
        result = serve(_config(cells=3, subframes=15, backpressure="block"))
        assert result.ok
        assert result.report["dispatched"] == 45
        per_cell = result.report["per_cell"]
        assert [c["cell"] for c in per_cell] == [0, 1, 2]
        assert all(c["dispatched"] == 15 for c in per_cell)
        assert all(c["monotone_ids"] for c in per_cell)

    def test_users_per_hour_is_consistent(self):
        result = serve(_config(backpressure="block"))
        report = result.report
        expected = report["served_users"] / report["wall_s"] * 3600.0
        assert report["users_per_hour"] == pytest.approx(expected)


class TestPacing:
    def test_paces_dispatch_every_delta(self):
        """Six ticks at DELTA = 30 ms on the threaded runtime take at
        least 5 x 30 ms: the §IV-B maintenance thread's cadence."""
        result = serve(
            _config(
                subframes=6,
                delta_s=0.03,
                pace=True,
                backend="threaded",
                backpressure="block",
                processor=None,
            )
        )
        assert result.ok, result.errors
        assert result.report["dispatched"] == 6
        assert result.report["wall_s"] >= 5 * 0.03


class TestTrace:
    def test_trace_jsonl_carries_serve_events(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        result = serve(
            _config(subframes=12, backpressure="shed", trace_path=str(path))
        )
        assert result.ok
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {record["kind"] for record in records}
        assert "arrival" in kinds
        assert "subframe-terminal" in kinds
        arrivals = [r for r in records if r["kind"] == "arrival"]
        assert len(arrivals) == 12
        for record in arrivals:
            assert record["cell"] == 0
            assert record["lag_ns"] >= 0
            assert record["queue_depth"] >= 0

    def test_backpressure_events_name_the_policy(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        serve(_config(trace_path=str(path)))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        hits = [r for r in records if r["kind"] == "backpressure"]
        assert hits, "expected backpressure at queue_depth=1 with a slow shard"
        assert all(r["policy"] == "shed" for r in hits)


class TestFaultsMode:
    def test_inline_chaos_survives_with_overload_shedding(self):
        result = serve(
            _config(
                subframes=60,
                backpressure="block",
                max_activity=0.9,
                faults=True,
                processor=None,
            )
        )
        assert result.ok
        report = result.report
        assert report["config"]["faults"] is True
        assert sum(report["terminal_counts"].values()) == 60
        assert validate_serve_report(report) == []


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"cells": 0},
            {"subframes": 0},
            {"delta_s": 0.0},
            {"arrival": "bogus"},
            {"backend": "quantum"},
            {"backpressure": "yolo"},
            {"queue_depth": 0},
            {"max_users": 0},
        ],
    )
    def test_bad_values_raise(self, overrides):
        with pytest.raises(ValueError):
            serve(_config(**overrides))

    def test_result_ok_requires_clean_errors(self):
        result = ServeResult(report={"ledger_ok": True}, errors=["boom"])
        assert not result.ok
        assert ServeResult(report={"ledger_ok": True}).ok
        assert not ServeResult(report={"ledger_ok": False}).ok


def test_terminal_states_cover_the_report_keys():
    states = {state.value for state in TerminalState}
    result = serve(_config(subframes=5))
    assert set(result.report["terminal_counts"]) == states


def _declared_paths(declaration, prefix=()):
    """Every key path ``ServeReport`` declares, nested sections and the
    per-cell row (as ``per_cell[0]``) included."""
    for key, hint in get_type_hints(declaration).items():
        path = (*prefix, key)
        yield path
        row = (getattr(hint, "__args__", None) or (None,))[0]
        if is_typeddict(hint):
            yield from _declared_paths(hint, path)
        elif is_typeddict(row):
            yield from _declared_paths(row, (*path, 0))


@pytest.fixture(scope="module")
def small_report():
    return json.loads(json.dumps(serve(_config(cells=2, subframes=6)).report))


@pytest.mark.parametrize(
    "path", list(_declared_paths(ServeReport)), ids=lambda p: ".".join(map(str, p))
)
@pytest.mark.parametrize("how", ["dropped", "mistyped"])
def test_the_validator_names_every_declared_key(small_report, path, how):
    report = json.loads(json.dumps(small_report))
    *parents, key = path
    section = report
    for step in parents:
        section = section[step]
    if how == "dropped":
        del section[key]
    else:
        section[key] = object()
    name = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]
    problems = validate_serve_report(report)
    assert problems and all(repr(name) in p for p in problems), problems
