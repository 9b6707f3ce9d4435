"""Deterministic fault injection and overload resilience (``repro.faults``).

The package has three layers:

* **Injection** — :mod:`repro.faults.plan` describes *what* goes wrong as a
  seeded :class:`~repro.faults.plan.FaultPlan`, replayed by regenerating
  it from its seed;
  :mod:`repro.faults.injector` carries the thread-side trigger logic and
  payload corruption helpers.
* **Resilience** — :mod:`repro.faults.watchdog` holds the retry/deadline/
  drain knobs (:class:`~repro.faults.watchdog.ResilienceConfig`), the
  runtimes' join timeout and the
  :func:`~repro.faults.watchdog.hang_guard` for CLI entry points;
  :mod:`repro.faults.admission` sheds users under overload using the
  paper's Eq. 1-4 activity estimator.
* **Accounting** — :mod:`repro.faults.accounting` tracks every dispatched
  subframe to exactly one terminal state
  (``ok | crc_failed | shed | aborted``).

The chaos campaign driver lives in :mod:`repro.faults.chaos`; import it
explicitly (``from repro.faults import chaos``) — it pulls in the threaded
runtime and the uplink pipeline, which this package root must not.
"""

from __future__ import annotations

from .accounting import LedgerError, SubframeLedger, TerminalState
from .admission import AdmissionController, AdmissionDecision
from .injector import (
    InjectedFault,
    InjectedTaskError,
    InjectedWorkerDeath,
    ThreadFaultInjector,
    corrupt_subframe,
)
from .plan import (
    PAYLOAD_KINDS,
    SIM_KINDS,
    THREAD_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from .watchdog import ResilienceConfig, RuntimeHung, WorkerFailure, hang_guard

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedTaskError",
    "InjectedWorkerDeath",
    "LedgerError",
    "PAYLOAD_KINDS",
    "ResilienceConfig",
    "RuntimeHung",
    "SIM_KINDS",
    "SubframeLedger",
    "TerminalState",
    "THREAD_KINDS",
    "ThreadFaultInjector",
    "WorkerFailure",
    "corrupt_subframe",
]
