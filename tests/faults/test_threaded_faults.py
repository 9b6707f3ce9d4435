"""Fault injection and resilience in the threaded runtime.

The load-bearing properties: injected faults never corrupt results (a
retried subframe is bit-identical to the fault-free run), worker death is
loud instead of silent, and every dispatched subframe still lands in
exactly one terminal state. (What holds on every backend alike — retry
budget, deadline expiry, loud unexpected worker failures, ``abort`` — is
checked once in ``tests/sched/test_runtime_contract.py``.)
"""

import pytest

from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    ResilienceConfig,
    SubframeLedger,
    TerminalState,
    ThreadFaultInjector,
)
from repro.phy.params import Modulation
from repro.sched.threaded import ThreadedRuntime
from repro.uplink.parameter_model import TraceParameterModel
from repro.uplink.serial import SerialBenchmark
from repro.uplink.subframe import SubframeFactory
from repro.uplink.user import UserParameters
from repro.uplink.verification import verify_against_serial


def make_subframes(num=4, seed=0):
    """Synthesized (CRC-passing) inputs so `ok` is the clean terminal."""
    users = [
        [
            UserParameters(0, 8, 2, Modulation.QAM16),
            UserParameters(1, 4, 1, Modulation.QPSK),
        ],
        [UserParameters(0, 16, 4, Modulation.QPSK)],
    ]
    model = TraceParameterModel(users)
    factory = SubframeFactory(seed=seed)
    subframes = [
        factory.synthesize(model.uplink_parameters(i), i) for i in range(num)
    ]
    return model, factory, subframes


def reference_results(num=4, seed=0):
    model, factory, _ = make_subframes(num, seed)
    return SerialBenchmark(model, factory, synthesize=True).run(num)


def plan_of(*specs):
    return FaultPlan(specs=tuple(specs))


class TestWorkerDeath:
    def test_injected_death_is_survived_and_recorded(self):
        _, _, subframes = make_subframes(num=4)
        # Wildcard target: whichever worker adopts a subframe-0 user dies
        # (a fixed target might never adopt one and the fault would not fire).
        plan = plan_of(
            FaultSpec(kind=FaultKind.WORKER_DEATH, subframe=0, target=-1)
        )
        runtime = ThreadedRuntime(
            num_workers=4,
            faults=plan,
            resilience=ResilienceConfig(max_retries=2),
        )
        results = runtime.run(subframes)
        assert len(results) == 4
        assert len(runtime.failures) == 1
        failure = runtime.failures[0]
        assert failure.injected
        assert not failure.fatal
        report = verify_against_serial(reference_results(4), results)
        assert report.passed, str(report)

    def test_all_workers_dead_aborts_everything(self):
        _, _, subframes = make_subframes(num=3)
        specs = [
            FaultSpec(kind=FaultKind.WORKER_DEATH, subframe=0, target=w)
            for w in range(2)
        ]
        runtime = ThreadedRuntime(
            num_workers=2,
            faults=plan_of(*specs),
            resilience=ResilienceConfig(max_retries=5),
        )
        results = runtime.run(subframes)
        counts = runtime.ledger.counts()
        assert counts["aborted"] == 3
        assert counts["ok"] == 0
        assert all(r.aborted_user_ids for r in results)
        runtime.ledger.check()


class TestRetry:
    def test_task_exception_retries_to_bit_exact_results(self):
        _, _, subframes = make_subframes(num=4)
        plan = plan_of(
            FaultSpec(kind=FaultKind.TASK_EXCEPTION, subframe=1, target=-1)
        )
        runtime = ThreadedRuntime(
            num_workers=2,
            faults=plan,
            resilience=ResilienceConfig(max_retries=2),
        )
        results = runtime.run(subframes)
        assert runtime.stats.retries >= 1
        assert runtime.stats.aborted_users == 0
        reference = reference_results(4)
        report = verify_against_serial(reference, results)
        assert report.passed, str(report)
        # Terminal states must mirror the serial reference's CRC verdicts
        # (some synthesized subframes fail CRC from channel noise alone).
        expected_ok = sum(
            all(u.crc_ok for u in r.user_results) for r in reference
        )
        counts = runtime.ledger.counts()
        assert counts["ok"] == expected_ok
        assert counts["crc_failed"] == 4 - expected_ok
        assert counts["aborted"] == 0

    def test_retry_budget_exhaustion_aborts_the_user(self):
        _, _, subframes = make_subframes(num=2)
        # More planned exceptions than the retry budget allows: with
        # max_retries=0 the first exception already aborts.
        plan = plan_of(
            FaultSpec(kind=FaultKind.TASK_EXCEPTION, subframe=0, target=-1)
        )
        runtime = ThreadedRuntime(
            num_workers=2,
            faults=plan,
            resilience=ResilienceConfig(max_retries=0),
        )
        results = runtime.run(subframes)
        assert runtime.stats.aborted_users >= 1
        aborted = [r for r in results if r.aborted_user_ids]
        assert aborted
        counts = runtime.ledger.counts()
        assert counts["aborted"] >= 1
        assert sum(counts.values()) == 2


class TestHangAndDeadline:
    def test_hang_is_interruptible_and_run_completes(self):
        _, _, subframes = make_subframes(num=3)
        plan = plan_of(
            FaultSpec(
                kind=FaultKind.WORKER_HANG, subframe=0, target=-1, param=0.05
            )
        )
        runtime = ThreadedRuntime(num_workers=2, faults=plan)
        results = runtime.run(subframes)
        assert len(results) == 3
        report = verify_against_serial(reference_results(3), results)
        assert report.passed, str(report)


class TestAccounting:
    def test_fault_plan_auto_wraps_into_injector(self):
        plan = plan_of(
            FaultSpec(kind=FaultKind.TASK_EXCEPTION, subframe=0, target=0)
        )
        runtime = ThreadedRuntime(num_workers=1, faults=plan)
        assert isinstance(runtime.faults, ThreadFaultInjector)

    def test_external_ledger_balances_under_faults(self):
        _, _, subframes = make_subframes(num=4)
        ledger = SubframeLedger()
        plan = plan_of(
            FaultSpec(kind=FaultKind.WORKER_DEATH, subframe=1, target=0),
            FaultSpec(kind=FaultKind.TASK_EXCEPTION, subframe=2, target=-1),
        )
        runtime = ThreadedRuntime(
            num_workers=2,
            faults=plan,
            resilience=ResilienceConfig(max_retries=3),
            ledger=ledger,
        )
        runtime.run(subframes)
        assert runtime.ledger is ledger
        ledger.check()
        assert ledger.dispatched == 4
        assert sum(ledger.counts().values()) == 4
        assert ledger.state_of(0) is TerminalState.OK

    def test_zero_fault_armed_machinery_is_bit_exact(self):
        # num=3: subframes 0-2 all decode cleanly in the serial reference.
        _, _, subframes = make_subframes(num=3)
        runtime = ThreadedRuntime(
            num_workers=4,
            faults=ThreadFaultInjector(FaultPlan()),
            resilience=ResilienceConfig(max_retries=2, deadline_s=300.0),
        )
        results = runtime.run(subframes)
        report = verify_against_serial(reference_results(3), results)
        assert report.passed, str(report)
        assert runtime.ledger.counts() == {
            "ok": 3, "crc_failed": 0, "shed": 0, "aborted": 0,
        }


class TestClockHelpers:
    """The one ns clock the drain/watchdog paths share."""

    def test_ns_from_s_rounds_instead_of_truncating(self):
        from repro.faults.watchdog import NS_PER_S, ns_from_s

        # Regression: the drain/watchdog deadlines used int(s * 1e9),
        # which floors the float artefact of 4.1 * 1e9 to 4_099_999_999 —
        # one tick early at every deadline boundary.
        assert int(4.1 * 1e9) == 4_099_999_999  # the truncation drift
        assert ns_from_s(4.1) == 4_100_000_000  # the fix
        assert ns_from_s(0.0) == 0
        assert ns_from_s(1e-9) == 1
        assert ns_from_s(5e-3) == 5_000_000
        assert NS_PER_S == 1_000_000_000

    def test_runtime_deadlines_go_through_the_helper(self):
        # Both parallel runtimes must use the shared helper, not ad-hoc
        # int(s * 1e9) conversions that reintroduce the drift.
        import inspect

        from repro.sched import multiprocess, threaded

        for module in (threaded, multiprocess):
            source = inspect.getsource(module)
            assert "ns_from_s" in source, module.__name__
            assert "int(" + "1e9" not in source
