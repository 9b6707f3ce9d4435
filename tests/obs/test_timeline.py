"""Tests for the Chrome ``trace_event`` timeline export."""

import json

import pytest

from repro.obs import (
    Event,
    EventKind,
    EventRecorder,
    chrome_trace_events,
    gating_events_from_active_workers,
    write_chrome_trace,
)


def ev(kind, t=0, core=-1, **data):
    return Event(kind, t, core, data or None)


class TestChromeTraceEvents:
    def test_task_pair_becomes_complete_slice(self):
        events = chrome_trace_events([
            ev(EventKind.TASK_START, t=700, core=2, kernel="chest"),
            ev(EventKind.TASK_FINISH, t=1400, core=2, kernel="chest"),
        ], clock="cycles", clock_hz=700e6)
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 1
        (task,) = slices
        assert task["name"] == "chest" and task["tid"] == 2
        assert task["ts"] == pytest.approx(1.0)  # 700 cycles @ 700 MHz = 1 us
        assert task["dur"] == pytest.approx(1.0)

    def test_finish_with_cycles_payload_needs_no_start(self):
        events = chrome_trace_events([
            ev(EventKind.TASK_FINISH, t=2100, core=0, kernel="symbol",
               cycles=700),
        ])
        (task,) = [e for e in events if e["ph"] == "X"]
        assert task["name"] == "symbol"
        assert task["dur"] == pytest.approx(1.0)

    def test_state_transitions_make_power_rows(self):
        events = chrome_trace_events([
            ev(EventKind.STATE_TRANSITION, t=100, core=0,
               **{"from": "compute", "to": "nap"}),
            ev(EventKind.STATE_TRANSITION, t=300, core=0,
               **{"from": "nap", "to": "compute"}),
        ])
        power = [e for e in events if e["ph"] == "X" and e["pid"] == 2]
        assert [e["name"] for e in power] == ["compute", "nap"]

    def test_subframe_spans_become_async_pairs(self):
        # A subframe's span is its dispatch -> terminal pair.
        events = chrome_trace_events([
            ev(EventKind.DISPATCH, t=0, subframe=7, users=1),
            ev(EventKind.SUBFRAME_TERMINAL, t=700, subframe=7, state="ok"),
        ])
        pair = sorted(
            (e["ph"], e["ts"]) for e in events if e.get("id") == 7
        )
        assert pair == [("b", 0.0), ("e", pytest.approx(1.0))]

    def test_unknown_kind_is_tolerated_as_instant(self):
        # A JSONL record written by a future schema must stay loadable.
        record = {"kind": "quantum-flux", "t": 10, "core": 1, "novel": True}
        events = chrome_trace_events([record])
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["name"] == "quantum-flux"
        assert instant["args"]["novel"] is True

    def test_dict_and_event_records_mix(self):
        events = chrome_trace_events([
            {"kind": "task-start", "t": 0, "core": 0, "kernel": "chest"},
            ev(EventKind.TASK_FINISH, t=10, core=0, kernel="chest"),
        ])
        assert any(e["ph"] == "X" and e["name"] == "chest" for e in events)

    def test_bad_clock_rejected(self):
        with pytest.raises(ValueError, match="unknown clock"):
            chrome_trace_events([], clock="fortnights")


class TestGatingSynthesis:
    def test_events_emitted_only_on_powered_changes(self):
        active = [8, 8, 8, 24, 24, 24, 24, 24, 8, 8, 8, 8, 8]
        events = gating_events_from_active_workers(active, 3_500_000)
        kinds = {e.kind for e in events}
        assert kinds == {EventKind.GATING}
        powered = [e.data["powered"] for e in events]
        # Quantized to whole 8-core gating groups; the wind-down lags the
        # activity drop by the Eq. 7 window.
        assert powered[0] == 8
        assert max(powered) >= 24
        assert all(e.data["groups_on"] == e.data["powered"] // 8
                   for e in events)
        times = [e.t for e in events]
        assert times == sorted(times)
        assert all(t % 3_500_000 == 0 for t in times)


class TestWriteChromeTraceEndToEnd:
    @pytest.fixture(scope="class")
    def trace_document(self, tmp_path_factory):
        """The acceptance scenario: a 10-subframe NAP+IDLE simulator run."""
        from repro.power.estimator import calibrate_from_cost_model
        from repro.power.governor import make_policy
        from repro.sim.cost import CostModel, MachineSpec
        from repro.sim.machine import MachineSimulator, SimConfig
        from repro.uplink.parameter_model import RandomizedParameterModel

        cost = CostModel(machine=MachineSpec(num_cores=10, num_workers=8))
        estimator = calibrate_from_cost_model(cost)
        recorder = EventRecorder()
        sim = MachineSimulator(
            cost,
            policy=make_policy("NAP+IDLE", 8, estimator),
            config=SimConfig(drain_margin_s=0.2),
            observers=[recorder],
        )
        model = RandomizedParameterModel(total_subframes=10, seed=0)
        result = sim.run(model, num_subframes=10)
        machine = result.machine
        gating = gating_events_from_active_workers(
            result.active_workers, machine.subframe_period_cycles
        )
        path = tmp_path_factory.mktemp("timeline") / "trace.json"
        count = write_chrome_trace(
            path,
            recorder.events,
            clock="cycles",
            clock_hz=machine.clock_hz,
            extra=gating,
            metadata={"policy": "NAP+IDLE"},
        )
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
        return document, count, result

    def test_document_is_valid_trace_event_json(self, trace_document):
        document, count, _ = trace_document
        assert isinstance(document["traceEvents"], list)
        assert len(document["traceEvents"]) == count
        assert document["otherData"]["clock"] == "cycles"
        assert document["otherData"]["policy"] == "NAP+IDLE"
        for event in document["traceEvents"]:
            assert event["ph"] in {"X", "i", "C", "b", "e", "M"}
            if event["ph"] != "M":
                assert isinstance(event["ts"], (int, float))
                assert event["ts"] >= 0

    def test_task_slices_named_by_kernel(self, trace_document):
        document, _, _ = trace_document
        tasks = [e for e in document["traceEvents"]
                 if e["ph"] == "X" and e["pid"] == 1]
        names = {e["name"] for e in tasks}
        assert {"chest", "combiner", "symbol", "finalize"} <= names
        assert all(e["dur"] >= 0 for e in tasks)

    def test_one_async_pair_per_dispatched_subframe(self, trace_document):
        document, _, _ = trace_document
        pairs = {}
        for e in document["traceEvents"]:
            if e["ph"] in ("b", "e"):
                pairs.setdefault(e["id"], []).append(e["ph"])
        assert pairs == {index: ["b", "e"] for index in range(10)}

    def test_power_state_rows_exist_per_core(self, trace_document):
        document, _, result = trace_document
        power = [e for e in document["traceEvents"]
                 if e["ph"] == "X" and e["pid"] == 2]
        assert power, "expected nap/wake state segments"
        cores_with_rows = {e["tid"] for e in power}
        assert cores_with_rows == set(range(result.machine.num_workers))
        assert {e["name"] for e in power} <= {
            "compute", "spin", "nap", "disabled"
        }

    def test_gating_counter_rows_present(self, trace_document):
        document, _, _ = trace_document
        counters = [e for e in document["traceEvents"]
                    if e["ph"] == "C" and e["pid"] == 3]
        assert counters
        assert all(e["name"] == "powered_cores" for e in counters)

    def test_metadata_names_processes_and_threads(self, trace_document):
        document, _, result = trace_document
        meta = [e for e in document["traceEvents"] if e["ph"] == "M"]
        process_names = {e["args"]["name"] for e in meta
                         if e["name"] == "process_name"}
        assert len(process_names) == 4
        thread_names = {(e["pid"], e["tid"]) for e in meta
                        if e["name"] == "thread_name"}
        for core in range(result.machine.num_workers):
            assert (1, core) in thread_names
            assert (2, core) in thread_names

    def test_jsonl_round_trip_stays_convertible(self, trace_document,
                                                tmp_path):
        """Old JSONL traces (plus unknown kinds) convert without error."""
        from repro.obs import read_jsonl

        document, _, _ = trace_document
        # Simulate an old trace file with a record this build doesn't know.
        jsonl = tmp_path / "old.jsonl"
        with open(jsonl, "w", encoding="utf-8") as fh:
            fh.write('{"kind":"task-start","t":0,"core":0,"kernel":"chest"}\n')
            fh.write('{"kind":"task-finish","t":9,"core":0,"kernel":"chest"}\n')
            fh.write('{"kind":"from-the-future","t":10,"core":0}\n')
        out = tmp_path / "converted.json"
        count = write_chrome_trace(out, read_jsonl(jsonl))
        assert count > 0
        converted = json.load(open(out, encoding="utf-8"))
        names = {e["name"] for e in converted["traceEvents"]}
        assert "chest" in names and "from-the-future" in names


class TestPerProcessLanes:
    def test_process_id_records_get_their_own_chrome_process(self):
        # Two worker pids -> two Chrome process lanes above
        # _PID_WORKER_BASE, each with a process_name metadata row naming
        # the OS pid; a record without process_id stays on pid 1.
        events = chrome_trace_events([
            ev(EventKind.TASK_START, t=0, core=0, kernel="chest",
               process_id=4001),
            ev(EventKind.TASK_FINISH, t=10, core=0, kernel="chest",
               process_id=4001),
            ev(EventKind.TASK_START, t=0, core=1, kernel="symbol",
               process_id=4002),
            ev(EventKind.TASK_FINISH, t=10, core=1, kernel="symbol",
               process_id=4002),
            ev(EventKind.TASK_START, t=20, core=2, kernel="finalize"),
            ev(EventKind.TASK_FINISH, t=30, core=2, kernel="finalize"),
        ], clock="ns")
        slices = {e["name"]: e for e in events if e["ph"] == "X"}
        assert slices["chest"]["pid"] >= 10
        assert slices["symbol"]["pid"] >= 10
        assert slices["chest"]["pid"] != slices["symbol"]["pid"]
        assert slices["finalize"]["pid"] == 1  # no process_id: shared lane
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names[slices["chest"]["pid"]] == "worker process 4001"
        assert names[slices["symbol"]["pid"]] == "worker process 4002"

    def test_worker_lane_assignment_is_stable_per_pid(self):
        events = chrome_trace_events([
            ev(EventKind.TASK_START, t=0, core=0, kernel="chest",
               process_id=7777),
            ev(EventKind.TASK_FINISH, t=5, core=0, kernel="chest",
               process_id=7777),
            ev(EventKind.TASK_START, t=10, core=0, kernel="combiner",
               process_id=7777),
            ev(EventKind.TASK_FINISH, t=15, core=0, kernel="combiner",
               process_id=7777),
        ], clock="ns")
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert len(pids) == 1

    def test_user_spans_follow_their_worker_lane(self):
        events = chrome_trace_events([
            ev(EventKind.USER_START, t=0, core=1, subframe=3, user=2,
               process_id=5005),
            ev(EventKind.USER_FINISH, t=40, core=1, subframe=3, user=2,
               process_id=5005),
        ], clock="ns")
        (span,) = [e for e in events if e["ph"] == "X"]
        assert span["name"] == "user 2" and span["pid"] >= 10


#: One user of one subframe as the threaded runtime wrote it before its
#: joins became serial tasks: a span pair around each Fig. 5 stage, and
#: the two joins with no task events at all.
_PARENT_FORMAT_TRACE = [
    {"kind": "dispatch", "t": 0, "core": -1, "subframe": 0, "users": 1},
    {"kind": "user-start", "t": 10, "core": 1, "subframe": 0, "user": 0},
    {"kind": "span-begin", "t": 11, "core": 1, "name": "chest",
     "cat": "kernel", "subframe": 0, "user": 0},
    {"kind": "task-start", "t": 12, "core": 1, "stolen": False,
     "kernel": "chest"},
    {"kind": "task-finish", "t": 20, "core": 1, "stolen": False,
     "kernel": "chest"},
    {"kind": "span-end", "t": 21, "core": 1, "name": "chest",
     "cat": "kernel", "subframe": 0, "user": 0},
    {"kind": "span-begin", "t": 22, "core": 1, "name": "combiner",
     "cat": "kernel", "subframe": 0, "user": 0},
    {"kind": "span-end", "t": 30, "core": 1, "name": "combiner",
     "cat": "kernel", "subframe": 0, "user": 0},
    {"kind": "user-finish", "t": 40, "core": 1, "subframe": 0, "user": 0},
    {"kind": "subframe-terminal", "t": 41, "core": -1, "subframe": 0,
     "state": "ok"},
]


class TestRetiredSpanKinds:
    def test_parent_format_trace_converts(self):
        events = chrome_trace_events(_PARENT_FORMAT_TRACE, clock="ns")
        # The retired kinds go through the unknown-kind path as instants.
        instants = [e["name"] for e in events if e["ph"] == "i"]
        assert instants.count("span-begin") == instants.count("span-end") == 2
        slices = [e["name"] for e in events if e["ph"] == "X"]
        assert sorted(slices) == ["chest", "user 0"]

    def test_parent_format_trace_replays_through_the_tailer(self):
        import io

        from repro.obs import TelemetryCollector, TraceTailer

        text = "\n".join(json.dumps(r) for r in _PARENT_FORMAT_TRACE) + "\n"
        collector = TelemetryCollector()
        tailer = TraceTailer(io.StringIO(text), collector)
        assert tailer.advance() == len(_PARENT_FORMAT_TRACE) - 4
        assert tailer.skipped == 4
        assert collector.counters["subframes"] == 1
        assert collector.sketches["kernel_chest"].count == 1

    def test_threaded_joins_export_as_task_slices_on_the_user_lane(self):
        from repro.phy import Modulation
        from repro.sched import ThreadedRuntime
        from repro.uplink import SubframeFactory, UserParameters

        users = [UserParameters(0, 8, 1, Modulation.QPSK),
                 UserParameters(1, 16, 2, Modulation.QAM16)]
        subframe = SubframeFactory(seed=0).synthesize(users, 0)
        recorder = EventRecorder()
        ThreadedRuntime(num_workers=2, observers=[recorder]).run([subframe])
        lanes = {
            e.data["user"]: e.core
            for e in recorder.events if e.kind is EventKind.USER_START
        }
        events = chrome_trace_events(recorder.events, clock="ns")
        slices = [e for e in events if e["ph"] == "X" and e["pid"] == 1]
        assert not [e for e in slices if e["name"].endswith(" stage")]
        for join in ("combiner", "finalize"):
            joins = [e for e in slices if e["name"] == join]
            assert {e["args"]["user"]: e["tid"] for e in joins} == lanes
            assert all(e["args"]["serial"] for e in joins)
