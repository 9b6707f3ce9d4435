"""Streaming base-station service mode: the async serve loop.

The batch driver (``repro run``) pushes a fixed worklist through a
backend as fast as it will go. A base station does not get
that luxury: subframes *arrive*, one per cell per DELTA (the paper's
5 ms cadence), whether or not the receiver is keeping up. This module
is that arrival side. :func:`serve` runs an asyncio ingest loop with
one producer per cell: each tick it draws the cell's offered users from
a seeded arrival process (:mod:`repro.serve.arrivals`), applies
backpressure against the cell's bounded in-flight queue, runs the
Eq. 3-4 admission controller, and submits the admitted subframe to the
cell's shard (:class:`repro.serve.cell.CellShard`), whose
:class:`~repro.sched.core.Runtime` — serial, vectorized, threaded or
multiprocess, all one contract — runs it off the loop's thread.

Accounting is ledger-first: every arrival that offers users is entered
into one shared :class:`~repro.faults.accounting.SubframeLedger` and
driven to exactly one terminal state (ok / crc_failed / shed /
aborted), including subframes refused by backpressure or admission
control and subframes orphaned by worker failures (reconciled to
``aborted`` at drain). ``report()["ledger_ok"]`` is therefore the
serve-mode survival criterion: overload and chaos must degrade into
*shed*, never into silently lost work.

Telemetry rides the PR 8 stream: the loop emits ``ARRIVAL`` /
``BACKPRESSURE`` / ``DISPATCH`` / ``SHED`` / ``SUBFRAME_TERMINAL``
events into an :class:`~repro.obs.slo.SLOEngine`, so ``repro serve
--json`` yields the same ``repro-slo/1`` burn-rate report as batch
runs, and ``--trace`` writes a line-flushed JSONL stream that
``repro top --from <path> --follow`` can tail live.

Threading model: the asyncio loop owns every shard counter and the
ledger-facing serve paths. There is one terminal path: the runtime's
tracker resolves a subframe (on a worker thread, or on the loop thread for
the multiprocess pool), hands state *and* result to the cell's
``_RuntimeWatcher.on_terminal``, and that queues them for the loop, where
one ``call_soon_threadsafe`` lands every terminal queued meanwhile — a
batch's terminals in one wakeup — into ``_on_terminal``, which does all the
accounting. A loop task polls every runtime (``Runtime.poll``): that is
what pumps the multiprocess pool's replies and expires deadlines, always
from the loop thread, so no second thread ever calls into a runtime. The
loop keeps running while the runtimes drain, so terminals land and cuts
are written up to the end.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import IO, Any, Literal, overload

from ..faults.accounting import LedgerError, SubframeLedger, TerminalState
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..faults.watchdog import (
    ResilienceConfig,
    RuntimeHung,
    monotonic_ns,
    ns_from_s,
)
from ..ioutil import atomic_write_json, fsync_file
from ..obs.events import Event, EventKind
from ..obs.slo import SLOEngine
from ..obs.telemetry import TelemetryCollector
from ..sched import WorkerFailuresError, runtime_class
from ..uplink.parameter_model import ParameterModel
from ..uplink.serial import SubframeResult
from ..uplink.subframe import SubframeFactory
from .arrivals import make_arrivals
from .cell import CELL_STRIDE, CellShard
from .config import ServeConfig
from .overload import OverloadController
from .report import (
    SCHEMA,
    ServeCut,
    ServeReport,
    load_checkpoint,
    sum_counters,
    terminal_counts,
    validate_checkpoint,
)

__all__ = ["ServeResult", "serve"]

#: Worker-core remap stride: cell ``c``'s runtime core ``k`` reports as
#: core ``c * _CORE_STRIDE + k`` so per-core telemetry stays distinct.
_CORE_STRIDE = 256

#: Cell ``c`` draws its arrivals with seed ``seed + c * _CELL_SEED_STRIDE``
#: (and its fault plan one above), so no two cells share a stream.
_CELL_SEED_STRIDE = 1_000_003

#: Ticks an injected overload window stays active.
_OVERLOAD_WINDOW = 20

#: Per-subframe watchdog deadline under ``faults`` (seconds).
_FAULTS_DEADLINE_S = 2.0

#: Drain timeout for runtime shards at shutdown (seconds).
_DRAIN_TIMEOUT_S = 60.0

#: Pump cadence: every runtime is polled this often (seconds), also while
#: the loop waits for the runtimes to drain.
_POLL_S = 0.002


@dataclass
class ServeResult:
    """What :func:`serve` returns: the report plus test-facing handles."""

    report: ServeReport
    results: dict[int, SubframeResult] = field(default_factory=dict)
    ledger: SubframeLedger | None = None
    engine: SLOEngine | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.report.get("ledger_ok")) and not self.errors


class _JsonlTraceSink:
    """Line-flushed JSONL event sink (tailable while being written)."""

    def __init__(self, path: str) -> None:
        try:
            self._fh: IO[str] = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write trace {path}: {exc}") from exc
        # Runtime worker threads emit concurrently with the loop thread.
        self._lock = threading.Lock()

    def __call__(self, event: Event) -> None:
        line = json.dumps(event.to_dict()) + "\n"
        with self._lock:
            if self._fh.closed:  # Ctrl-C: a marshaled terminal landed late
                return
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            # Final flush is crash-safe: force the tail of the trace to
            # stable storage before close so a kill right after the run
            # cannot truncate the last lines `repro top --from` reads.
            if not self._fh.closed:
                fsync_file(self._fh)
            self._fh.close()


class _RuntimeWatcher:
    """Observer bridging one cell's runtime into the serve loop.

    Task/fault/retry events forward synchronously (the collectors are
    GIL-safe, same as every batch runtime observer) with worker cores
    remapped into the cell's core band. The terminal instead arrives
    through :meth:`on_terminal` — state and result together — and is
    queued for the loop thread, where the shard's counters and the
    backpressure capacity signal live. The runtime's own ``DISPATCH`` and
    ``SUBFRAME_TERMINAL`` events are swallowed: the serve loop emits its
    cell-tagged ones.
    """

    def __init__(self, server: _Server, cell_id: int) -> None:
        self._server = server
        self._cell_id = cell_id

    def on_terminal(self, result: SubframeResult, state: TerminalState, t: int) -> None:
        server = self._server
        server._landing.append((server.cells[self._cell_id], result, state, t))
        # One loop wakeup for whatever queues before it runs: a batch's
        # terminals, resolved back to back, land together.
        if not server._land_pending:
            server._land_pending = True
            server.loop.call_soon_threadsafe(server._land)

    def __call__(self, event: Event) -> None:
        kind = event.kind
        if kind is EventKind.SUBFRAME_TERMINAL or kind is EventKind.DISPATCH:
            return
        core = event.core
        if core >= 0:
            core = self._cell_id * _CORE_STRIDE + core
        data = dict(event.data) if event.data else {}
        data.setdefault("cell", self._cell_id)
        self._server.emit(Event(kind, event.t, core, data))


class _Server:
    """One serve run: cells, producers, drains, and the final report."""

    def __init__(self, config: ServeConfig) -> None:
        config.validate()
        self.config = config
        # A record that cannot be resumed fails here, before the trace
        # file is opened or any runtime is built.
        resume = self._resume_point()
        self.errors: list[str] = []
        self.results: dict[int, SubframeResult] = {}
        self.ledger = SubframeLedger()
        self.trace_sink: _JsonlTraceSink | None = (
            _JsonlTraceSink(config.trace_path) if config.trace_path else None
        )
        self.engine = SLOEngine(
            TelemetryCollector(delta=ns_from_s(config.delta_s)), sink=self.trace_sink
        )
        self.telemetry = self.engine.telemetry
        self.overload: OverloadController | None = (
            OverloadController(self.engine, sink=self.emit)
            if config.adaptive
            else None
        )
        resilience = None
        if config.faults:
            resilience = ResilienceConfig(
                deadline_s=_FAULTS_DEADLINE_S,
                drain_timeout_s=_DRAIN_TIMEOUT_S,
            )
        factory = SubframeFactory(seed=config.seed)
        self.cells: list[CellShard] = []
        self.overloads: list[tuple[FaultSpec, ...]] = []
        overload = frozenset({FaultKind.OVERLOAD})
        for cell_id in range(config.cells):
            overloads: tuple[FaultSpec, ...] = ()
            runtime_plan: FaultPlan | None = None
            if config.faults:
                plan = self._cell_plan(cell_id)
                # OVERLOAD is the loop's to inject; the rest is the runtime's.
                overloads = plan.of_kinds(overload).specs
                runtime_plan = plan.of_kinds(frozenset(FaultKind) - overload)
            cell = CellShard(
                cell_id,
                self._cell_arrivals(cell_id),
                factory,
                backend=config.backend,
                workers=config.workers,
                queue_depth=config.queue_depth,
                synthesize=config.synthesize,
                max_activity=config.max_activity,
                ledger=self.ledger,
                faults=runtime_plan,
                resilience=resilience,
                observers=[_RuntimeWatcher(self, cell_id)],
                processor=config.processor,
                respawn=config.respawn,
            )
            self.cells.append(cell)
            self.overloads.append(overloads)
        self.telemetry.workers = sum(c.runtime.num_workers for c in self.cells)
        self.loop: Any = None  # bound in run()
        # Terminals the watchers queued for the loop, in resolve order, and
        # whether a ``_land`` is scheduled to take them (no lock: deque
        # appends and pops are atomic, and a lost race costs one empty
        # landing).
        self._landing: deque[
            tuple[CellShard, SubframeResult, TerminalState, int]
        ] = deque()
        self._land_pending = False
        self._capacity: list[asyncio.Event] = []
        self._pump_stop = False
        self._start_ns = 0
        # --- checkpoint / resume / wall-guard state ---------------------
        self._segments = 1
        self._resumed_wall_s = 0.0
        self._wall_begin = 0.0
        self._ckpt_stop = False
        self._ckpt_writes = 0
        self._ckpt_telemetry_misses = 0
        self._max_wall_hit = False
        self._producers_done = False
        if resume is not None:
            self._restore(resume)

    def _resume_point(self) -> dict[str, Any] | None:
        """The record ``resume_path`` names, validated against the config."""
        if not self.config.resume_path:
            return None
        record = load_checkpoint(self.config.resume_path)
        problems = validate_checkpoint(record, self.config)
        if problems:
            raise ValueError("checkpoint not resumable: " + "; ".join(problems))
        return record

    def _restore(self, record: dict[str, Any]) -> None:
        """Adopt a validated record before running."""
        states: dict[int, dict[int, str]] = {}
        for gid, state in record["terminal_states"].items():
            cell_id, tick = divmod(int(gid), CELL_STRIDE)
            states.setdefault(cell_id, {})[tick] = state
        for cell, row in zip(self.cells, record["per_cell"]):
            cell.restore(row, states.get(cell.cell_id, {}))
        if record["telemetry"]:
            self.engine.merge_shard(record["telemetry"])
        self._segments = record["checkpoint"]["segments"] + 1
        self._resumed_wall_s = record["wall_s"]

    # ------------------------------------------------------------ factories
    def _cell_arrivals(self, cell_id: int) -> ParameterModel:
        config = self.config
        knobs = {
            f.name: getattr(config, f.name)
            for f in fields(config)
            if f.metadata.get("arrival")
        }
        return make_arrivals(
            config.arrival,
            seed=config.seed + _CELL_SEED_STRIDE * cell_id,
            total_subframes=config.subframes,
            **knobs,
        )

    def _cell_plan(self, cell_id: int) -> FaultPlan:
        config = self.config
        # Worker faults only where the transport can lose a worker and go
        # on (a serial/vectorized shard's one thread is the whole shard).
        kinds = runtime_class(config.backend).chaos_kinds + (FaultKind.OVERLOAD,)
        if config.respawn:
            # Repeated-kill kinds exercise the supervisor's bounded
            # respawn; without one they would just abort the shard.
            kinds += (FaultKind.CRASH_LOOP, FaultKind.RESPAWN_STORM)
        return FaultPlan.generate(
            seed=config.seed + _CELL_SEED_STRIDE * cell_id + 1,
            num_subframes=config.subframes,
            num_workers=max(1, config.workers),
            kinds=kinds,
            faults_per_kind=max(1, config.subframes // 100),
        )

    def _overload_factor(self, cell_id: int, tick: int) -> float:
        """Active injected overload multiplier at ``tick``, else 1.0."""
        factor = 1.0
        for spec in self.overloads[cell_id]:
            if spec.subframe <= tick < spec.subframe + _OVERLOAD_WINDOW:
                factor = max(factor, spec.param)
        return factor

    # ------------------------------------------------------------- emission
    def emit(self, event: Event) -> None:
        self.engine(event)
        if self.trace_sink is not None:
            self.trace_sink(event)

    def _cell_event(
        self, kind: EventKind, t: int, cell: CellShard, gid: int, **data: Any
    ) -> None:
        """Emit one loop-side event tagged with its cell and subframe id."""
        self.emit(
            Event(kind, t, -1, {"cell": cell.cell_id, "subframe": gid, **data})
        )

    # ------------------------------------------------------------ terminals
    def _finish(
        self, cell: CellShard, gid: int, state: str, t: int, crc_ok: int = 0
    ) -> None:
        """Loop-thread terminal accounting + uniform serve terminal event,
        which carries the ledger's reason (``surge``, ``admission``,
        ``backpressure``, ``submit-failed``, the runtime's; empty for ok)."""
        cell.note_terminal(gid, state, crc_ok)
        self._cell_event(
            EventKind.SUBFRAME_TERMINAL,
            t,
            cell,
            gid,
            state=state,
            reason=self.ledger.reason_of(gid),
            cell_subframe=gid - cell.global_id(0),
        )
        if self.overload is not None:
            # Terminals are what advance the SLO measurement window, so
            # this is the exact cadence the burn-rate alerts re-evaluate.
            self.overload.maybe_update(t)
        self._capacity[cell.cell_id].set()

    def _land(self) -> None:
        """Loop thread: every queued terminal, in resolve order. The flag
        drops first, so a terminal queued after the last pop schedules the
        next landing."""
        self._land_pending = False
        landing = self._landing
        while landing:
            self._on_terminal(*landing.popleft())

    def _on_terminal(
        self, cell: CellShard, result: SubframeResult, state: TerminalState, t: int
    ) -> None:
        """The one terminal path (loop thread): every backend's tracker
        lands here with the subframe's state and its result."""
        gid = result.subframe_index
        if gid not in cell.users_of:
            return  # duplicate or pre-reconciled terminal
        if self.config.keep_results:
            self.results[gid] = result
        crc_ok = sum(1 for u in result.user_results if u.crc_ok)
        self._finish(cell, gid, state.value, t, crc_ok)

    # ------------------------------------------------------------- producer
    def _queue_depth(self, cell: CellShard) -> int:
        """The cell's backpressure threshold under the adaptive factor."""
        if self.overload is None:
            return cell.queue_depth
        return self.overload.effective_queue_depth(cell.queue_depth)

    async def _await_capacity(self, cell: CellShard) -> None:
        # The effective depth is read again on every wake: a terminal can
        # move the adaptive controller while the producer waits.
        event = self._capacity[cell.cell_id]
        while cell.inflight >= self._queue_depth(cell):
            event.clear()
            if cell.inflight < self._queue_depth(cell):
                break
            try:
                await asyncio.wait_for(event.wait(), timeout=0.05)
            # repro-lint: disable=REP402 poll heartbeat; while re-checks inflight
            except asyncio.TimeoutError:
                continue

    def _shed_whole(
        self,
        cell: CellShard,
        tick: int,
        users: int,
        reason: str,
        backpressure: int = 0,
    ) -> None:
        """Account one subframe refused before dispatch (ledger: shed).

        ``users`` is the tick's full offered count; whole-subframe sheds
        stage ``offered == shed`` so the counters fold at the terminal.
        """
        gid = cell.global_id(tick)
        self.ledger.dispatch(gid, users)
        self.ledger.resolve(gid, TerminalState.SHED, reason=reason)
        cell.note_dispatch(
            tick,
            gid,
            0,
            queued=False,
            offered=users,
            shed=users,
            backpressure=backpressure,
        )
        self._finish(cell, gid, TerminalState.SHED.value, monotonic_ns())

    async def _run_cell(self, cell: CellShard) -> None:
        config = self.config
        delta_ns = ns_from_s(config.delta_s)
        skip = frozenset(cell.resolved_ticks)  # a resumed record's baseline
        max_wall_ns = (
            ns_from_s(config.max_wall_s)
            if config.max_wall_s is not None
            else None
        )
        burst_count = getattr(cell.arrivals, "burst_count", None)
        # Pacing position among the ticks this segment actually runs: a
        # resumed segment paces its *remaining* ticks at DELTA instead of
        # idling through the already-resolved prefix.
        slot = 0
        for tick in range(config.subframes):
            if tick in skip:
                continue  # resolved by a previous segment's run
            scheduled = self._start_ns + slot * delta_ns
            slot += 1
            now = monotonic_ns()
            if config.pace and now < scheduled:
                await asyncio.sleep((scheduled - now) / 1e9)
                now = monotonic_ns()
            elif not config.pace:
                # Unpaced, the producer yields only at a full queue: a yield
                # is an epoll call that hands the GIL to the cell's idle
                # worker, which would then start on a batch of one. So the
                # queue fills first, and terminals, pumps and cuts run
                # while it is full (under ``shed``, every tick it is).
                if cell.inflight >= self._queue_depth(cell):
                    await asyncio.sleep(0)
                now = monotonic_ns()
            if (
                max_wall_ns is not None
                and now - self._start_ns >= max_wall_ns
            ):
                self._max_wall_hit = True
                break
            lag_ns = max(0, now - scheduled) if config.pace else 0
            users = cell.arrivals.uplink_parameters(tick)
            gid = cell.global_id(tick)
            offered = len(users)
            self._cell_event(
                EventKind.ARRIVAL,
                now,
                cell,
                gid,
                users=offered,
                lag_ns=lag_ns,
                queue_depth=cell.inflight,
            )
            if not users:
                continue
            # While the adaptive controller is degraded, mMTC surge users
            # (the tail the burst process appends beyond the base rate)
            # are shed first — machine devices retry, humans do not.
            shed_surge = 0
            if (
                self.overload is not None
                and self.overload.degraded
                and burst_count is not None
            ):
                shed_surge = min(offered, int(burst_count(tick)))
                if shed_surge:
                    users = users[: offered - shed_surge]
                    self._cell_event(
                        EventKind.SHED,
                        now,
                        cell,
                        gid,
                        users=shed_surge,
                        surge=True,
                        load_factor=self.overload.load_factor,
                    )
                    if not users:
                        self._shed_whole(cell, tick, offered, "surge")
                        continue
            depth = self._queue_depth(cell)
            backpressured = 0
            if cell.inflight >= depth:
                backpressured = 1
                self._cell_event(
                    EventKind.BACKPRESSURE,
                    now,
                    cell,
                    gid,
                    users=len(users),
                    queue_depth=cell.inflight,
                    threshold=depth,
                    policy=config.backpressure,
                )
                if config.backpressure == "shed":
                    self._shed_whole(cell, tick, offered, "backpressure", 1)
                    continue
                await self._await_capacity(cell)
                now = monotonic_ns()
            factor = self._overload_factor(cell.cell_id, tick)
            if self.overload is not None:
                # Injected overload and adaptive inflation compose.
                factor *= self.overload.admission_factor()
            decision = cell.admit(users, load_factor=factor)
            if decision.shed:
                self._cell_event(
                    EventKind.SHED,
                    now,
                    cell,
                    gid,
                    users=len(decision.shed),
                    estimated_activity=decision.estimated_activity,
                    budget_activity=decision.budget_activity,
                )
            admitted = list(decision.admitted)
            shed_users = shed_surge + len(decision.shed)
            if not admitted:
                self._shed_whole(cell, tick, offered, "admission", backpressured)
                continue
            subframe = cell.make_subframe(tick, admitted)
            self._cell_event(
                EventKind.DISPATCH,
                monotonic_ns(),
                cell,
                gid,
                users=len(admitted),
            )
            cell.note_dispatch(
                tick,
                gid,
                len(admitted),
                offered=offered,
                shed=shed_users,
                backpressure=backpressured,
            )
            try:
                cell.runtime.submit(subframe)
            except Exception as exc:  # noqa: BLE001 - accounted below
                self.errors.append(
                    f"cell {cell.cell_id} submit {gid}: {exc!r}"
                )
                if not self.ledger.is_resolved(gid):
                    with contextlib.suppress(LedgerError):
                        # Unless submit failed after its own dispatch call.
                        self.ledger.dispatch(gid, len(admitted))
                    self.ledger.resolve(
                        gid, TerminalState.ABORTED, reason="submit-failed"
                    )
                self._finish(
                    cell, gid, TerminalState.ABORTED.value, monotonic_ns()
                )

    # ----------------------------------------------------------------- pump
    async def _pump_runtimes(self) -> None:
        """Poll every cell's runtime from the loop thread.

        A poll is what surfaces the multiprocess pool's replies and what
        expires wall-clock deadlines on every backend; with a blocked or
        idle producer nothing else would. Always from the loop thread,
        because a runtime is not safe for concurrent callers.
        """
        while not self._pump_stop:
            for cell in self.cells:
                try:
                    cell.runtime.poll(0.0)
                except Exception as exc:  # noqa: BLE001 - recorded
                    self.errors.append(
                        f"cell {cell.cell_id} pump: {exc!r}"
                    )
            await asyncio.sleep(_POLL_S)

    # ----------------------------------------------------------- checkpoint
    async def _checkpoint_loop(self) -> None:
        """Periodic crash-safe cuts while the run is live, at most one per
        ``checkpoint_every_s``: the interval is slept after each write, so
        it is a floor between cuts, not a rate."""
        every = self.config.checkpoint_every_s
        while not self._ckpt_stop:
            await asyncio.sleep(every)
            if self._ckpt_stop:
                break
            self._write_checkpoint(self._record(final=False))

    def _telemetry_shard(self) -> dict | None:
        """Mergeable telemetry cut for the record (best effort mid-run).

        The fold is the one thing a mid-run cut reads that the loop does not
        own: runtime observer threads mutate these dicts concurrently. The
        terminal-state map is the *exact* part of a cut, so a rare
        mid-mutation pass here is retried once and then dropped rather than
        adding a lock to the hot path.
        """
        for _ in range(2):
            try:
                return {
                    "sketches": {
                        name: sketch.to_dict()
                        for name, sketch in self.telemetry.sketches.items()
                    },
                    "counters": dict(self.telemetry.counters),
                }
            except RuntimeError:
                # Dict mutated during iteration: an observer thread
                # raced the cut. Counted (the record's `checkpoint`
                # section) so a cut that persistently lacks telemetry is
                # visible, then retried once.
                self._ckpt_telemetry_misses += 1
                continue
        return None

    def _write_checkpoint(self, record: ServeCut) -> None:
        """Persist ``record`` atomically to ``--checkpoint``, if set: a
        crash mid-write leaves the previous one intact, never a torn file."""
        path = self.config.checkpoint_path
        if not path:
            return
        try:
            atomic_write_json(path, record, indent=None, sort_keys=True)
            self._ckpt_writes += 1
        except OSError as exc:
            self.errors.append(f"checkpoint write: {exc!r}")

    # ---------------------------------------------------------------- drain
    async def _drain(self) -> None:
        """Wait for every runtime to empty without blocking the loop (the
        pump keeps polling, terminals land and cuts are written meanwhile),
        then take each runtime's drain outcome, as ``Runtime.drain`` would."""
        deadline = monotonic_ns() + ns_from_s(_DRAIN_TIMEOUT_S)
        while (
            any(cell.runtime.outstanding for cell in self.cells)
            and monotonic_ns() < deadline
        ):
            await asyncio.sleep(_POLL_S)
        for cell in self.cells:
            try:
                cell.runtime.check_drained(_DRAIN_TIMEOUT_S)
            except (WorkerFailuresError, RuntimeHung) as exc:
                self.errors.append(
                    f"cell {cell.cell_id} drain: {exc!r}"
                )
                try:
                    cell.runtime.abort()
                except Exception as abort_exc:  # noqa: BLE001 - recorded
                    self.errors.append(
                        f"cell {cell.cell_id} abort: {abort_exc!r}"
                    )
        # A runtime hands a terminal to its watcher before it stops counting
        # it as outstanding, so every terminal the runtimes resolved is
        # queued by now: land them, then force what none resolved.
        self._land()
        for cell in self.cells:
            self._reconcile(cell)

    def _reconcile(self, cell: CellShard) -> None:
        """Force any still-inflight subframe to a ledger terminal."""
        for gid in sorted(cell.users_of):
            state = self.ledger.state_of(gid)
            if state is None:
                self.ledger.resolve(
                    gid, TerminalState.ABORTED, reason="serve-reconcile"
                )
                state = TerminalState.ABORTED
            self._finish(cell, gid, state.value, monotonic_ns())

    # ------------------------------------------------------------------ run
    def __call__(self) -> ServeResult:
        """Run the session; ``__init__`` has checked all that can fail."""
        return asyncio.run(self.run())

    async def run(self) -> ServeResult:
        self.loop = asyncio.get_running_loop()
        self._capacity = [asyncio.Event() for _ in self.cells]
        self._wall_begin = time.perf_counter()
        pump_task = None
        ckpt_task = None
        try:
            for cell in self.cells:
                cell.runtime.start()
            # ``wall_s`` and the ``max_wall_s`` budget are one clock, started
            # when the runtimes are up (a pool's start() waits for its
            # children's imports).
            self._wall_begin = time.perf_counter()
            pump_task = self.loop.create_task(self._pump_runtimes())
            if self.config.checkpoint_path:
                ckpt_task = self.loop.create_task(self._checkpoint_loop())
            self._start_ns = monotonic_ns()
            await asyncio.gather(
                *(self._run_cell(cell) for cell in self.cells)
            )
            self._producers_done = True
            await self._drain()
            self._pump_stop = True
            await pump_task
            pump_task = None
        finally:
            self._pump_stop = True
            self._ckpt_stop = True
            if pump_task is not None:
                pump_task.cancel()
            if ckpt_task is not None:
                ckpt_task.cancel()
            for cell in self.cells:
                try:
                    cell.runtime.close()
                except Exception as exc:  # noqa: BLE001 - recorded
                    self.errors.append(
                        f"cell {cell.cell_id} stop: {exc!r}"
                    )
            if self.trace_sink is not None:
                self.trace_sink.close()
            # Built once every terminal is reconciled and every runtime is
            # closed; written even when the run is unwinding, so a graceful
            # max-wall stop or an interrupt leaves a resumable record.
            report = self._record(final=True)
            self._write_checkpoint(report)
        # The runtimes' watchers point back at this server: dropping the shards
        # breaks the cycle, so their grid pools are freed now, not at the next GC.
        self.cells.clear()
        return ServeResult(
            report=report,
            results=self.results,
            ledger=self.ledger,
            engine=self.engine,
            errors=self.errors,
        )

    # --------------------------------------------------------------- report
    @overload
    def _record(self, final: Literal[False]) -> ServeCut: ...

    @overload
    def _record(self, final: Literal[True]) -> ServeReport: ...

    def _record(self, final: bool) -> ServeCut:
        """This run's ``repro-serve/2`` record.

        Mid-run (``final=False``) it is a cut of what the loop owns plus the
        telemetry shard; the final one adds what only the end of a run can
        say, read once no runtime can mutate the fold any more.
        """
        config = self.config
        wall_s = max(
            1e-9, self._resumed_wall_s + time.perf_counter() - self._wall_begin
        )
        rows = [cell.row() for cell in self.cells]
        states = {
            str(cell.global_id(tick)): state
            for cell in self.cells
            for tick, state in sorted(cell.resolved_ticks.items())
        }
        users = sum_counters(rows)
        cut: ServeCut = {
            "schema": SCHEMA,
            "config": {
                f.name: getattr(config, f.name)
                for f in fields(config)
                if "flag" in f.metadata
            },
            "wall_s": wall_s,
            "dispatched": len(states),
            "terminal_counts": terminal_counts(states.values()),
            **users,
            "throughput_sf_per_s": len(states) / wall_s,
            "users_per_hour": users["served_users"] / wall_s * 3600.0,
            "per_cell": rows,
            "terminal_states": states,
            "telemetry": self._telemetry_shard(),
            "adaptive": None if self.overload is None else self.overload.summary(),
            "supervisor": self._supervisor_summary(),
            "checkpoint": {
                "segments": self._segments,
                "writes": self._ckpt_writes,
                "telemetry_misses": self._ckpt_telemetry_misses,
                # Every tick this run was asked to serve reached a terminal.
                "completed": final
                and self._producers_done
                and not self._max_wall_hit,
            },
            "max_wall_hit": self._max_wall_hit,
        }
        if not final:
            return cut
        snapshot = self.telemetry.snapshot()
        report: ServeReport = {
            **cut,
            # The ledger is segment-local: ``ledger_ok`` certifies this run.
            "ledger_ok": bool(self.ledger.ok),
            "arrival_lag": snapshot["sketches"].get("arrival_lag", {}),
            "queue_depth_series": snapshot["series"].get("queue_depth", []),
            "faults": {
                "shedding_engaged": bool(
                    users["shed_users"]
                    or users["backpressure_hits"]
                    or cut["terminal_counts"][TerminalState.SHED.value]
                ),
                "faults_seen": snapshot["counters"].get("faults", 0),
            },
            "slo": self.engine.slo_report(),
            "errors": list(self.errors),
        }
        return report

    def _supervisor_summary(self) -> dict | None:
        supervisors = [
            supervisor
            for supervisor in (
                getattr(cell.runtime, "supervisor", None)
                for cell in self.cells
            )
            if supervisor is not None
        ]
        if not supervisors:
            return None
        return {
            "deaths": sum(s.deaths for s in supervisors),
            "respawns": sum(s.respawns for s in supervisors),
            "fail_stop": any(s.fail_stop for s in supervisors),
            "per_cell": [s.summary() for s in supervisors],
        }


def serve(config: ServeConfig | None = None) -> ServeResult:
    """Run one serve session to completion."""
    return _Server(config or ServeConfig())()
