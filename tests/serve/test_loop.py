"""Serve-loop behavior tests: backpressure, admission shedding, tracing.

These drive :func:`repro.serve.serve` with a cheap fake processor (an
empty :class:`SubframeResult` after a short sleep) so the tests exercise
the *control plane* — queueing, shedding, ledger accounting, reporting —
without paying for PHY decoding.
"""

import asyncio
import json
import sys
import threading
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


def _pin_degraded(monkeypatch):
    """Replace serve's overload controller with one held degraded at load
    factor 0.25 (queue depth 8 becomes 2)."""
    from repro.serve import loop

    class Degraded(loop.OverloadController):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.aimd.load_factor = 0.25
            self.aimd.degraded = True

        def maybe_update(self, t):
            return None

    monkeypatch.setattr(loop, "OverloadController", Degraded)


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
        _pin_degraded(monkeypatch)
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


class TestSurgeShedding:
    """docs/serving.md, "Adaptive admission": while degraded, an mMTC
    cell sheds the burst's surge users before anything is admitted."""

    def test_a_degraded_controller_sheds_the_surge(self, monkeypatch, tmp_path):
        _pin_degraded(monkeypatch)
        path = tmp_path / "serve.jsonl"
        period, window = 20, 10
        result = serve(
            _config(
                subframes=40, arrival="mmtc", rate=0.5, burst_size=30.0,
                burst_period=period, burst_window=window, queue_depth=8,
                backpressure="block", adaptive=True, trace_path=str(path),
            )
        )
        assert result.ok, result.errors
        report = result.report
        assert report["ledger_ok"]
        records = [json.loads(line) for line in path.read_text().splitlines()]
        surge = [r for r in records if r["kind"] == "shed" and r.get("surge")]
        assert surge
        assert all(r["subframe"] % period < window for r in surge)
        for cell in report["per_cell"]:
            assert cell["offered_users"] == cell["admitted_users"] + cell["shed_users"]
        assert report["shed_users"] >= sum(r["users"] for r in surge)
        offered = {r["subframe"]: r["users"] for r in records if r["kind"] == "arrival"}
        surge_only = [
            r["subframe"] for r in surge if r["users"] == offered[r["subframe"]]
        ]
        assert surge_only, "expected a burst tick with no background user"
        terminals = {
            r["subframe"]: r for r in records if r["kind"] == "subframe-terminal"
        }
        for gid in surge_only:
            assert report["terminal_states"][str(gid)] == "shed"
            assert terminals[gid]["reason"] == "surge"
        assert report["terminal_counts"]["shed"] == len(surge_only)
        assert all(r["reason"] == "" for r in terminals.values() if r["state"] == "ok")


class TestSubmitFailure:
    def test_a_refused_submit_ends_aborted_and_is_named(self, monkeypatch):
        """``serve/loop.py``: a runtime whose ``submit`` raises leaves its
        subframe ``aborted`` in the ledger and its error in ``errors``."""
        from repro.serve import cell

        real = cell.make_runtime
        refused = []

        def make_flaky_runtime(*args, **kwargs):
            runtime = real(*args, **kwargs)
            submit = runtime.submit

            def submit_refusing_once(subframe):
                if not refused:
                    refused.append(subframe.subframe_index)
                    raise RuntimeError("transport refused")
                return submit(subframe)

            runtime.submit = submit_refusing_once
            return runtime

        monkeypatch.setattr(cell, "make_runtime", make_flaky_runtime)
        result = serve(_config(subframes=12, backpressure="block"))
        report = result.report
        [gid] = refused
        assert report["terminal_states"][str(gid)] == "aborted"
        assert report["terminal_counts"]["aborted"] == 1
        assert len(result.errors) == 1 and not result.ok
        assert f"submit {gid}" in result.errors[0]
        assert "transport refused" in result.errors[0]
        assert report["ledger_ok"]
        assert report["dispatched"] == sum(report["terminal_counts"].values())
        assert validate_serve_report(report) == []


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


def _gated_processor(gate, gated=lambda index: True, timed_out=None):
    """A fake processor that holds each subframe ``gated`` selects until
    ``gate`` opens (at most 5 s; ``timed_out`` collects those that waited
    that long)."""

    def process(subframe):
        index = subframe.subframe_index
        if gated(index) and not gate.wait(timeout=5.0) and timed_out is not None:
            timed_out.append(index)
        return SubframeResult(subframe_index=index)

    return process


class TestLoopHandoff:
    """How the serve loop and the runtimes' threads hand over: an unpaced
    producer fills its queue before it yields, a batch's terminals land in
    one loop wakeup, and the loop keeps running while the runtimes drain
    (docs/serving.md, "Threading model")."""

    def test_terminals_queued_while_the_loop_is_busy_land_in_one_wakeup(
        self, monkeypatch
    ):
        from repro.serve import loop

        gate = threading.Event()
        handed: list[int] = []  # terminals handed to the watcher, in order
        landed: list[int] = []  # terminals the loop accounted, in order
        wakeups: list[object] = []  # loop wakeups asked for by the server
        servers = []

        on_terminal = loop._RuntimeWatcher.on_terminal

        def watch(self, result, state, t):
            assert threading.current_thread() is not threading.main_thread()
            on_terminal(self, result, state, t)
            handed.append(result.subframe_index)

        land = loop._Server._on_terminal

        def account(self, cell, result, state, t):
            landed.append(result.subframe_index)
            land(self, cell, result, state, t)

        call_soon_threadsafe = asyncio.BaseEventLoop.call_soon_threadsafe

        def wake(self, callback, *args, **kwargs):
            if getattr(callback, "__self__", None) in servers:
                wakeups.append(callback)
            return call_soon_threadsafe(self, callback, *args, **kwargs)

        run_cell = loop._Server._run_cell

        async def busy_after_dispatch(self, cell):
            servers.append(self)
            await run_cell(self, cell)
            # Keep the loop thread busy until the worker has handed every
            # terminal over.
            gate.set()
            deadline = time.monotonic() + 10.0
            while len(handed) < 4 and time.monotonic() < deadline:
                time.sleep(0.001)

        monkeypatch.setattr(loop._RuntimeWatcher, "on_terminal", watch)
        monkeypatch.setattr(loop._Server, "_on_terminal", account)
        monkeypatch.setattr(loop._Server, "_run_cell", busy_after_dispatch)
        monkeypatch.setattr(asyncio.BaseEventLoop, "call_soon_threadsafe", wake)
        result = serve(
            _config(
                subframes=4, backend="serial", queue_depth=8,
                backpressure="block", processor=_gated_processor(gate),
            )
        )
        assert result.ok, result.errors
        assert handed == [0, 1, 2, 3]
        assert landed == handed  # resolve order, each exactly once
        assert len(wakeups) == 1
        assert result.report["terminal_counts"] == result.ledger.counts()

    def test_an_unpaced_producer_fills_its_queue_before_it_yields(
        self, monkeypatch
    ):
        from repro.serve import loop

        seen: list[int] = []
        run_cell = loop._Server._run_cell

        async def observed(self, cell):
            self.loop.call_soon(lambda: seen.append(cell.inflight))
            await run_cell(self, cell)

        monkeypatch.setattr(loop._Server, "_run_cell", observed)
        result = serve(
            _config(subframes=12, backend="serial", queue_depth=4,
                    backpressure="block")
        )
        assert result.ok, result.errors
        assert seen == [4]

    def test_cuts_are_written_while_the_runtimes_drain(
        self, monkeypatch, tmp_path
    ):
        """The last subframes stay outstanding after the last dispatch
        until a cut is written that holds resolved terminals: only a loop
        that keeps running during the drain writes one."""
        from repro.serve import loop

        gate = threading.Event()
        timed_out: list[int] = []
        drain_cuts: list[int] = []  # resolved terminals in each such cut
        write = loop._Server._write_checkpoint

        def cut(self, record):
            if (
                self._producers_done
                and "ledger_ok" not in record  # a cut, not the final report
                and record["terminal_states"]
                and not gate.is_set()
            ):
                drain_cuts.append(len(record["terminal_states"]))
                gate.set()
            write(self, record)

        monkeypatch.setattr(loop._Server, "_write_checkpoint", cut)
        result = serve(
            _config(
                subframes=6, backend="serial", queue_depth=8,
                backpressure="block", checkpoint_every_s=0.01,
                checkpoint_path=str(tmp_path / "ckpt.json"),
                processor=_gated_processor(
                    gate, gated=lambda index: index >= 3, timed_out=timed_out
                ),
            )
        )
        assert result.ok, result.errors
        assert timed_out == []
        assert len(drain_cuts) == 1 and 0 < drain_cuts[0] < 6
        assert result.report["terminal_counts"]["ok"] == 6

    def test_no_terminal_is_lost_between_the_workers_and_the_loop(
        self, monkeypatch
    ):
        """Four cells' worker threads (more than this host's cores) queue
        terminals while the loop takes them, switching threads every 10 us:
        every terminal lands through ``_on_terminal`` exactly once, and a
        landing that never comes would stall a ``block`` producer, so the
        run must end within 60 s."""
        from collections import Counter

        from repro.serve import loop

        landed: Counter[int] = Counter()
        on_terminal = loop._Server._on_terminal

        def account(self, cell, result, state, t):
            landed[result.subframe_index] += 1
            on_terminal(self, cell, result, state, t)

        monkeypatch.setattr(loop._Server, "_on_terminal", account)
        config = _config(
            cells=4, subframes=150, backend="serial", queue_depth=8,
            backpressure="block", processor=_slow_fake_processor(0.0),
        )
        results: list[ServeResult] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(
                target=lambda: results.append(serve(config)), daemon=True
            )
            runner.start()
            runner.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "a terminal never landed"
        (result,) = results
        assert result.ok, result.errors
        assert len(landed) == 600 and set(landed.values()) == {1}
        assert result.report["terminal_counts"] == result.ledger.counts()
        assert result.report["terminal_counts"]["ok"] == 600


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
