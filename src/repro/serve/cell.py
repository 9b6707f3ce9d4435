"""Per-cell scheduler shards for the serve loop.

Each simulated cell owns one :class:`CellShard`: its arrival process, the
run's one :class:`~repro.uplink.subframe.SubframeFactory`, a per-cell
:class:`~repro.faults.admission.AdmissionController` (the Eq. 3-4
estimator shedding against the DELTA budget), a bounded in-flight queue,
and one :class:`~repro.sched.core.Runtime` from
:func:`~repro.sched.make_runtime` — whichever backend it is, it runs
off the ingest loop's thread, resolves every submitted subframe exactly
once in the serve run's shared
:class:`~repro.faults.accounting.SubframeLedger`, and hands each result to
the loop through its observers' ``on_terminal``.

Subframe identity: cell ``c``'s tick ``k`` dispatches as global id
``c * CELL_STRIDE + k``, so ids are unique across cells in the shared
ledger while cell 0's ids equal its ticks — which keeps a single-cell
serve run bit-exact with the batch driver at the same seed (the
synthesis RNG is keyed on the subframe id).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable

from ..faults.accounting import SubframeLedger, TerminalState
from ..faults.admission import AdmissionController, AdmissionDecision
from ..faults.plan import FaultPlan, FaultSpec
from ..faults.watchdog import ResilienceConfig
from ..power import calibrate_from_cost_model
from ..sched import Runtime, make_runtime
from ..sim import CostModel
from ..uplink.parameter_model import ParameterModel
from ..uplink.serial import SubframeResult
from ..uplink.subframe import SubframeFactory, SubframeInput
from ..uplink.user import UserParameters
from .report import CellRow, sum_counters, terminal_counts

__all__ = ["CELL_STRIDE", "CellShard", "offset_plan"]

#: Global-id stride between cells: cell ``c``, tick ``k`` dispatches as
#: subframe id ``c * CELL_STRIDE + k``. Wide enough that no bounded serve
#: run can collide across cells, and cell 0 keeps ``id == tick``.
CELL_STRIDE = 10_000_000


def offset_plan(plan: FaultPlan, offset: int) -> FaultPlan:
    """Rebase a fault plan's subframe indices into a cell's global-id space.

    Plans are generated per cell over local ticks ``[0, num_subframes)``;
    the runtimes arm specs by the *global* subframe id they observe, so
    every spec shifts by the cell's id offset.
    """
    specs = tuple(
        FaultSpec(
            kind=spec.kind,
            subframe=spec.subframe + offset,
            target=spec.target,
            param=spec.param,
            seed=spec.seed,
        )
        for spec in plan.specs
    )
    return FaultPlan(specs=specs, seed=plan.seed)


class CellShard:
    """One cell's arrival stream, admission control, and backend.

    The shard is driven by the asyncio serve loop (single consumer); its
    counters are only mutated from loop callbacks, so they need no lock.
    The runtime receives the shared ``ledger`` so its dispatch/resolve
    accounting lands in the serve run's global ledger; ``processor``
    replaces ``process_subframes`` on the serial/vectorized transport
    (one subframe a call: it is never handed a batch). ``faults`` is the
    runtime's plan over local ticks exactly as the serve loop chose its
    kinds; the shard only rebases it onto the cell's global ids.
    """

    def __init__(
        self,
        cell_id: int,
        arrivals: ParameterModel,
        factory: SubframeFactory,
        backend: str = "vectorized",
        workers: int = 2,
        queue_depth: int = 8,
        synthesize: bool = False,
        max_activity: float = 0.9,
        ledger: SubframeLedger | None = None,
        faults: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        observers: list | None = None,
        processor: Callable[[SubframeInput], SubframeResult] | None = None,
        respawn: bool = False,
    ) -> None:
        if cell_id < 0:
            raise ValueError("cell_id must be >= 0")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.cell_id = cell_id
        self.arrivals = arrivals
        self.queue_depth = queue_depth
        self.synthesize = synthesize
        #: Shared by every cell of the run: synthesis and the grid pool
        #: are keyed on the global subframe id, not on the cell.
        self.factory = factory
        self.admission = AdmissionController(
            calibrate_from_cost_model(CostModel()), max_activity=max_activity
        )
        self.ledger = ledger if ledger is not None else SubframeLedger()
        plan = None if faults is None else offset_plan(faults, self.global_id(0))
        self.runtime: Runtime = make_runtime(
            backend,
            num_workers=workers,
            processor=processor,
            respawn=respawn,
            observers=observers,
            faults=plan,
            resilience=resilience,
            ledger=self.ledger,
        )
        # --- loop-owned state (single consumer, no lock needed) ---------
        self.inflight = 0
        self.max_depth = 0
        self.counters = sum_counters([])
        self.last_tick: int | None = None
        self.monotone = True
        #: Users admitted per in-flight global id (for served accounting).
        self.users_of: dict[int, int] = {}
        #: Ids dispatched-as-shed that never occupied the queue.
        self._unqueued: set[int] = set()
        #: Per-gid user accounting staged at dispatch and folded into the
        #: cell counters only at the terminal: (offered, shed, bp, tick).
        #: This makes every user counter cover exactly the *resolved*
        #: subframes — the consistent cut a crash-safe checkpoint needs.
        self._meta: dict[int, tuple[int, int, int, int]] = {}
        #: Terminal state per resolved local tick (this segment plus any
        #: restored baseline): the record's share of ``terminal_states``,
        #: the resume skip set and the source of every per-cell count.
        self.resolved_ticks: dict[int, str] = {}

    # ------------------------------------------------------------- identity
    def global_id(self, tick: int) -> int:
        return self.cell_id * CELL_STRIDE + tick

    # ------------------------------------------------------------- dispatch
    def make_subframe(self, tick: int, users: list[UserParameters]) -> SubframeInput:
        index = self.global_id(tick)
        if self.synthesize:
            return self.factory.synthesize(users, index)
        return self.factory.from_pool(users, index)

    def admit(
        self, users: list[UserParameters], load_factor: float
    ) -> AdmissionDecision:
        return self.admission.admit(users, load_factor=load_factor)

    # ------------------------------------------------------------- tracking
    def note_dispatch(
        self,
        tick: int,
        gid: int,
        users: int,
        queued: bool = True,
        offered: int = 0,
        shed: int = 0,
        backpressure: int = 0,
    ) -> None:
        """Track one ledger dispatch; ``queued=False`` for subframes shed
        before execution, which never occupy the in-flight queue.

        ``offered``/``shed``/``backpressure`` are this tick's user-level
        facts, staged here and folded into the cell counters when the
        subframe resolves (:meth:`note_terminal`) so the counters always
        describe exactly the resolved subframes.
        """
        if self.last_tick is not None and tick <= self.last_tick:
            self.monotone = False
        self.last_tick = tick
        self.users_of[gid] = users
        self._meta[gid] = (offered, shed, backpressure, tick)
        if queued:
            self.inflight += 1
            if self.inflight > self.max_depth:
                self.max_depth = self.inflight
        else:
            self._unqueued.add(gid)

    def note_terminal(self, gid: int, state: str, crc_ok: int = 0) -> int:
        """Account one terminal; returns the subframe's admitted users."""
        users = self.users_of.pop(gid, 0)
        if gid in self._unqueued:
            self._unqueued.discard(gid)
        else:
            self.inflight = max(0, self.inflight - 1)
        offered, shed, backpressure, tick = self._meta.pop(
            gid, (0, 0, 0, gid - self.cell_id * CELL_STRIDE)
        )
        counters = self.counters
        counters["offered_users"] += offered
        counters["admitted_users"] += users
        counters["shed_users"] += shed
        counters["backpressure_hits"] += backpressure
        self.resolved_ticks[tick] = state
        if state in (TerminalState.OK, TerminalState.CRC_FAILED):
            counters["served_users"] += users
            counters["crc_ok_users"] += crc_ok
        return users

    # --------------------------------------------------------------- record
    def row(self) -> CellRow:
        """This cell's row of the run's record: only resolved subframes
        count, so a mid-run cut leaves in-flight ticks to the resume."""
        return {
            "cell": self.cell_id,
            "dispatched": len(self.resolved_ticks),
            "terminal_counts": terminal_counts(self.resolved_ticks.values()),
            **self.counters,
            "max_queue_depth": self.max_depth,
            "last_tick": self.last_tick,
            "monotone_ids": self.monotone,
        }

    def restore(self, row: Mapping[str, Any], states: dict[int, str]) -> None:
        """Adopt a record's row and terminal states as the done baseline.

        Must run before the first dispatch. ``last_tick`` stays ``None``:
        the monotonicity witness is per-segment (the resumed segment
        dispatches only the not-yet-resolved ticks, in order).
        """
        if self.last_tick is not None:
            raise RuntimeError("cannot restore into a cell that already ran")
        self.resolved_ticks = dict(states)
        self.counters = sum_counters([row])
