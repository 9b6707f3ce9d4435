"""Tests for the hierarchical profiling spans (``repro.obs.profiling``)."""

import pytest

from repro.obs import Event, EventKind, Profiler
from repro.phy import Modulation
from repro.sched import ThreadedRuntime
from repro.sim.cost import CostModel
from repro.uplink import SubframeFactory, UserParameters
from repro.uplink.tasks import KERNEL_KINDS


def ev(kind, t=0, core=-1, **data):
    return Event(kind, t, core, data or None)


class TestProfilerSynthetic:
    def test_task_events_build_kernel_breakdown(self):
        prof = Profiler()
        prof(ev(EventKind.TASK_START, t=100, core=0, kernel="chest"))
        prof(ev(EventKind.TASK_FINISH, t=160, core=0, kernel="chest"))
        prof(ev(EventKind.TASK_START, t=160, core=0, kernel="symbol"))
        prof(ev(EventKind.TASK_FINISH, t=400, core=0, kernel="symbol"))
        breakdown = prof.kernel_breakdown()
        assert breakdown["chest"]["total"] == 60
        assert breakdown["symbol"]["total"] == 240
        assert breakdown["chest"]["share"] == pytest.approx(0.2)
        assert breakdown["symbol"]["share"] == pytest.approx(0.8)
        # Fig. 5 stage order is preserved in the report.
        assert list(breakdown) == ["chest", "symbol"]

    def test_cycles_payload_wins_over_open_record(self):
        # The simulator reports exact durations on the finish event; the
        # profiler must prefer them over start/finish subtraction.
        prof = Profiler()
        prof(ev(EventKind.TASK_START, t=0, core=1, kernel="combiner"))
        prof(ev(EventKind.TASK_FINISH, t=500, core=1, kernel="combiner",
                cycles=90))
        assert prof.kernel_breakdown()["combiner"]["total"] == 90

    def test_unpaired_finish_is_dropped(self):
        # Ring-buffer truncation can leave a finish with no start.
        prof = Profiler()
        prof(ev(EventKind.TASK_FINISH, t=10, core=0, kernel="chest"))
        assert prof.kernel_breakdown() == {}

    def test_deadline_slack_and_miss_rate(self):
        prof = Profiler()
        prof.delta = 40  # deadline = IN_FLIGHT_BOUND x DELTA = 120
        for index, duration in enumerate((100, 140, 110)):
            begin = index * 1000
            prof(ev(EventKind.DISPATCH, t=begin, subframe=index, users=1))
            prof(ev(EventKind.USER_START, t=begin, core=0,
                    subframe=index, user=0))
            prof(ev(EventKind.USER_FINISH, t=begin + duration - 10, core=0,
                    subframe=index, user=0, pending=0))
            # The subframe ends at its terminal, not at its last user.
            prof(ev(EventKind.SUBFRAME_TERMINAL, t=begin + duration,
                    subframe=index, state="ok"))
        assert prof.counters["subframes"] == 3
        assert prof.counters["deadline_misses"] == 1
        assert prof.deadline_miss_rate() == pytest.approx(1 / 3)
        slack = prof.sketch("deadline_slack")
        assert slack.count == 3
        assert slack.quantile(0) == -20 and slack.quantile(1) == 20
        assert [s.cat for s in prof.spans] == ["user", "subframe"] * 3

    def test_keep_spans_false_still_aggregates(self):
        prof = Profiler(keep_spans=False)
        prof(ev(EventKind.TASK_START, t=0, core=0, kernel="chest"))
        prof(ev(EventKind.TASK_FINISH, t=5, core=0, kernel="chest"))
        assert prof.spans == []
        assert prof.kernel_breakdown()["chest"]["count"] == 1


class TestProfilerOnSimulator:
    @pytest.fixture(scope="class")
    def profiled_run(self):
        from repro.power.estimator import calibrate_from_cost_model
        from repro.power.governor import make_policy
        from repro.sim.cost import CostModel, MachineSpec
        from repro.sim.machine import MachineSimulator, SimConfig
        from repro.uplink.parameter_model import RandomizedParameterModel

        cost = CostModel(machine=MachineSpec(num_cores=10, num_workers=8))
        estimator = calibrate_from_cost_model(cost)
        prof = Profiler()
        sim = MachineSimulator(
            cost,
            policy=make_policy("NAP+IDLE", 8, estimator),
            config=SimConfig(drain_margin_s=0.2),
            observers=[prof],
        )
        model = RandomizedParameterModel(total_subframes=30, seed=0)
        result = sim.run(model, num_subframes=30)
        return prof, result

    def test_all_kernels_attributed_in_cycles(self, profiled_run):
        prof, result = profiled_run
        breakdown = prof.kernel_breakdown()
        assert set(breakdown) == set(KERNEL_KINDS)
        assert sum(e["share"] for e in breakdown.values()) == pytest.approx(1.0)
        assert sum(e["count"] for e in breakdown.values()) == result.tasks_executed

    def test_deadline_bound_from_machine(self, profiled_run):
        prof, result = profiled_run
        assert prof.deadline == 3 * result.machine.subframe_period_cycles
        assert prof.clock_hz == result.machine.clock_hz
        assert prof.summary()["subframes_completed"] == 30

    def test_per_core_utilization_computed_on_run_end(self, profiled_run):
        prof, result = profiled_run
        assert len(prof.per_core_utilization) == result.machine.num_workers
        assert all(0.0 <= u <= 1.0 for u in prof.per_core_utilization)
        assert max(prof.per_core_utilization) > 0.0

    def test_summary_is_json_friendly(self, profiled_run):
        import json

        prof, _ = profiled_run
        summary = prof.summary()
        json.dumps(summary)
        assert summary["deadline_miss_rate"] == 0.0


class TestProfilerOnThreadedRuntime:
    def test_breakdown_covers_every_kernel(self):
        factory = SubframeFactory(seed=1)
        users = [
            UserParameters(0, 8, 1, Modulation.QPSK),
            UserParameters(1, 16, 2, Modulation.QAM16),
        ]
        subframes = [factory.synthesize(users, i) for i in range(3)]
        prof = Profiler()
        runtime = ThreadedRuntime(num_workers=2, steal_seed=0, observers=[prof])
        runtime.run(subframes)
        breakdown = prof.kernel_breakdown()
        assert list(breakdown) == list(KERNEL_KINDS)
        # The simulator's stage program, per user: 4*L chest and 12*L
        # symbol tasks, and each join once, as a serial task.
        expected = {kind: 0 for kind in KERNEL_KINDS}
        cost = CostModel()
        for user in users:
            for kind, cycles, kernel in cost.stage_program(user):
                expected[kernel] += len(subframes) * (
                    len(cycles) if kind == "par" else 1
                )
        assert {k: e["count"] for k, e in breakdown.items()} == expected
        assert expected == {"chest": 36, "combiner": 6, "symbol": 108,
                            "finalize": 6}
        assert sum(e["share"] for e in breakdown.values()) == pytest.approx(1.0)
        assert prof.summary()["subframes_completed"] == 3
        # A subframe's span is its dispatch -> terminal pair, one each.
        assert sum(s.cat == "subframe" for s in prof.spans) == 3
        # A subframe's span is its dispatch -> terminal pair, one each.
        assert sum(s.cat == "subframe" for s in prof.spans) == 3
