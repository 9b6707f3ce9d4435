"""True-parallel multiprocess runtime with shared-memory subframe grids.

The threaded runtime (:mod:`repro.sched.threaded`) proves functional
correctness of the parallel decomposition but is GIL-capped: its wall
clock never beats one core's worth of Python. This runtime escapes the
GIL the way real SDR stacks do (§IV-B dispatches *subframes* to workers)
— a ``spawn``-based process pool where each worker takes a whole
subframe and makes the same
``process_subframes([subframe], backend="vectorized")`` call the inline
runtime makes, so throughput scales with cores while results stay
bit-exact with the serial reference.

Data movement is engineered around ``multiprocessing.shared_memory``,
two kinds of segment:

* **received grids** — the parent copies a subframe's complex grid into a
  shared segment when it dispatches it; the worker attaches and reads
  zero-copy. Segments are *recycled*: when its subframe resolves, a segment
  goes onto a byte-capped idle list, still mapped on both sides, and the
  next grid that fits is copied into it. A fixed set of buffers circulates
  (one per worker and one in hand, plus one per retry waiting in the queue)
  and steady state creates, unlinks, attaches and faults in nothing. Only
  a segment a live worker's outstanding task still names (a straggler the
  deadline gave up on), the overflow past the cap and everything at
  ``close()`` are unlinked.
* **results** — each worker owns one shared output slab; decoded
  payloads and LLRs are written there, beside (never over) the previous
  task's, and only small descriptors travel over the control pipe (with
  an inline fallback, counted in ``stats.slab_overflows``, when a subframe
  does not fit beside its predecessor).

Everything else a worker needs (DMRS banks, windows, gather tables) it
caches on first use, exactly as the in-process backends do.

Control flow is a single-threaded parent event loop over per-worker
duplex pipes plus process sentinels (``multiprocessing.connection.wait``
covers both), carrying two kinds of message down: ``task`` (one subframe:
its index, grid segment and user slices) and ``forget`` (unlinked grid
segments to unmap), and two up: one ``ready`` per worker once it has
imported the chain (``start()`` waits for the first generation's) and one
reply per task. Per-worker pipes — not a shared queue — because a
``SIGKILL``-ed worker must not be able to corrupt a stream other workers
share, and ``Connection.send`` has no feeder thread to die mid-write.
One task is outstanding per worker at a time; a worker that replies is
sent its next subframe *before* the parent copies the finished one out of
the slab, which is safe because a task's results never overwrite its
predecessor's and the single-threaded loop has copied those out before it
reads the next reply.

This module is *transport* only — shared segments, pipes, sentinels and the
respawn of supervised slots. What it means to run a subframe to its
terminal state (ledger, retry budget, deadlines, events,
``run``/``drain``/``collect_results``/``abort``) is
:mod:`repro.sched.core`'s, shared with every other backend; the work unit here is the whole subframe, charged per user. Worker death is
*real*: a planned ``WORKER_DEATH`` fault makes the worker ``SIGKILL``
itself, the parent detects the corpse via its sentinel and hands the
orphaned subframe back to the tracker (requeued within the retry
budget), so every dispatched subframe still reaches exactly one terminal
state. By default
dead workers are not respawned (matching the threaded runtime); when the
last one dies, outstanding subframes are aborted loudly. The opt-in
``respawn=True`` attaches a
:class:`~repro.sched.supervisor.WorkerSupervisor` that turns the pool
into a self-healing service: dead slots are respawned with exponential
backoff under a rolling restart budget, orphaned subframes stay queued for
the replacement, and crash-loop detection degrades back to the fail-stop
semantics above when the budget is exhausted. Replay fingerprints of
existing chaos scenarios are unaffected because the default stays
fail-stop.

Events reuse the existing schema with a ``process_id`` payload dimension
(worker OS pids). Worker-side kernel timestamps are taken with
:func:`repro.faults.watchdog.monotonic_ns`, which on Linux reads the
system-wide ``CLOCK_MONOTONIC`` — directly comparable with the parent's
timestamps, so :mod:`repro.obs.timeline` renders one coherent
cross-process timeline with per-process lanes.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from multiprocessing import get_context, resource_tracker
from multiprocessing.connection import wait as _connection_wait
from multiprocessing.shared_memory import SharedMemory
from typing import Any

import numpy as np

from ..faults import watchdog
from ..faults.accounting import SubframeLedger
from ..faults.watchdog import (
    WATCHDOG_POLL_S,
    ResilienceConfig,
    WorkerFailure,
    monotonic_ns,
    ns_from_s,
)
from ..obs.events import Event, EventKind
from ..phy.chain import UserResult
from ..phy.dtypes import COMPLEX_DTYPE
from ..uplink.subframe import SubframeInput
from ..uplink.vectorized import process_subframes
from .core import Pending, Runtime
from .supervisor import WorkerSupervisor
from .threaded import RuntimeStats

__all__ = [
    "DEFAULT_SLAB_BYTES",
    "MultiprocessRuntime",
    "MultiprocessStats",
]

#: Per-worker shared output slab size, read when a slot spawns. A full
#: 200-PRB, 4-layer, 64-QAM subframe writes ~6.2 MB (5.5 MB of LLRs plus
#: 0.7 MB of uint8 payload) and must fit beside its predecessor's results;
#: a subframe that still overflows falls back to inline pickles and is
#: counted.
DEFAULT_SLAB_BYTES = 24 << 20

#: Cap on the idle grid segments kept mapped for reuse. The pool needs one
#: per worker and one in hand (a full-band 4-antenna grid is 2.15 MB); past
#: the cap a segment is unlinked as before: it bounds memory, costs only speed.
_IDLE_GRID_BYTES = 64 << 20

_ALIGN = 16  # complex128 itemsize; keeps every array offset aligned


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) & ~(_ALIGN - 1)


def _attach_shm(name: str) -> SharedMemory:
    """Attach to a parent-owned segment without adopting its lifecycle.

    Python ≤ 3.12 registers *attached* (not just created) segments with
    the resource tracker as if the attacher owned them (bpo-38119) — and
    spawn children share the parent's tracker process, so the duplicate
    registration collapses into the parent's entry and a later child-side
    ``unregister`` would strip the parent's own bookkeeping. Suppress the
    registration for the duration of the attach instead: the parent owns
    every segment's lifecycle.
    """
    real_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return SharedMemory(name=name)
    finally:
        resource_tracker.register = real_register


# --------------------------------------------------------------- worker side
class _StageSpan:
    """Context manager recording one kernel stage's monotonic-ns window."""

    __slots__ = ("kernel", "batch", "out", "begin")

    def __init__(self, kernel: str, batch: int, out: list) -> None:
        self.kernel = kernel
        self.batch = batch
        self.out = out

    def __enter__(self) -> "_StageSpan":
        self.begin = monotonic_ns()
        return self

    def __exit__(self, *exc) -> bool:
        self.out.append((self.kernel, self.begin, monotonic_ns(), self.batch))
        return False


def _pack_results(
    results: list[UserResult], slab: SharedMemory, live: list[int]
) -> tuple[list[dict], int]:
    """Write result arrays into the worker's slab; descriptors travel.

    ``live`` is the ``[start, end)`` extent of the previous task's results,
    which the parent may still be copying out. Tasks alternate between the
    two ends of the slab — up from offset 0 to where the previous results
    start, or at the top end above where they stop — so two consecutive
    tasks never overlap, and only what they need is ever touched. ``live``
    becomes this task's extent.
    Returns ``(descriptors, overflow_count)``. When the slab runs out,
    remaining users fall back to inline ndarray pickles — correctness is
    never traded for the zero-copy path.
    """
    needs = [_aligned(r.payload.nbytes) + _aligned(r.llrs.nbytes) for r in results]
    if live[0]:
        cursor, limit = 0, live[0]
    else:
        top = (slab.size - sum(needs)) & ~(_ALIGN - 1)
        cursor, limit = max(live[1], top), slab.size
    start = cursor
    packed: list[dict] = []
    overflowed = 0
    for result, need in zip(results, needs):
        payload = np.ascontiguousarray(result.payload)
        llrs = np.ascontiguousarray(result.llrs)
        entry = {"user": result.user_id, "crc_ok": bool(result.crc_ok)}
        if cursor + need > limit:
            entry["inline"] = (payload, llrs)
            overflowed += 1
            packed.append(entry)
            continue
        for label, array in (("payload", payload), ("llrs", llrs)):
            view = np.ndarray(
                array.shape, dtype=array.dtype, buffer=slab.buf, offset=cursor
            )
            view[...] = array
            entry[label] = (cursor, array.shape, str(array.dtype))
            cursor += _aligned(array.nbytes)
        packed.append(entry)
    live[:] = start, cursor
    return packed, overflowed


def _execute_task(
    task: dict,
    grids: dict[str, tuple[SharedMemory, np.ndarray]],
    slab: SharedMemory,
    live: list[int],
) -> tuple:
    """Run one subframe against the shared grid; reply over the pipe."""
    task_id = task["task_id"]
    if task.get("die"):
        # Real worker death, not an exception: the parent must detect the
        # corpse via the process sentinel and reclaim the orphaned subframe.
        os.kill(os.getpid(), signal.SIGKILL)
    try:
        name, shape = task["grid"]
        entry = grids.get(name)
        if entry is None or entry[1].shape != tuple(shape):
            # A recycled segment keeps its name and this mapping, but may
            # carry a grid of another shape than the cached view's.
            shm = entry[0] if entry else _attach_shm(name)
            view = np.ndarray(tuple(shape), dtype=COMPLEX_DTYPE, buffer=shm.buf)
            view.setflags(write=False)
            entry = grids[name] = (shm, view)
        grid = entry[1]
        # Wedge while *holding* the task (grid mapped), like a hung thread:
        # if the deadline resolves the subframe meanwhile, the straggler
        # still reads valid memory and reports a late completion.
        hang_s = task.get("hang_s")
        if hang_s:
            time.sleep(hang_s)
        if task.get("raise_exc"):
            return ("err", task_id, "InjectedTaskError: planned task failure", True)
        subframe = SubframeInput(task["subframe"], grid, task["slices"])
        stage_ns: list[tuple[str, int, int, int]] = []
        [result] = process_subframes(
            [subframe],
            "vectorized",
            stage_timer=lambda kernel, batch: _StageSpan(kernel, batch, stage_ns),
        )
        results = result.user_results
        packed, overflowed = _pack_results(results, slab, live)
        return ("ok", task_id, packed, overflowed, stage_ns)
    except Exception as exc:
        return ("err", task_id, f"{type(exc).__name__}: {exc}", False)


def _worker_main(worker_id: int, conn, slab_name: str) -> None:
    """Spawn entry point: serve tasks from the parent until told to stop."""
    slab = _attach_shm(slab_name)
    live = [0, 0]  # slab extent of the previous task's results
    grids: dict[str, tuple[SharedMemory, np.ndarray]] = {}
    try:
        # Slab attached, chain imported (with this module): start() may return.
        conn.send(("ready",))
        while True:
            message = conn.recv()
            if message is None:
                break
            kind = message[0]
            if kind == "forget":
                for name in message[1]:
                    entry = grids.pop(name, None)
                    if entry is not None:
                        entry[0].close()
            else:  # ("task", {...})
                conn.send(_execute_task(message[1], grids, slab, live))
    except (EOFError, BrokenPipeError, KeyboardInterrupt) as exc:
        # Parent vanished or interactive interrupt: nothing to report to
        # (the pipe is gone) — fall through to cleanup and exit 0 so the
        # parent's join sees an orderly shutdown, not a crash.
        del exc
    finally:
        for shm, _ in grids.values():
            shm.close()
        slab.close()
        conn.close()


# --------------------------------------------------------------- parent side
@dataclass
class MultiprocessStats(RuntimeStats):
    """Counters for one multiprocess run.

    :class:`~repro.sched.threaded.RuntimeStats` plus the pool's own
    counters. Only the single-threaded parent event loop mutates them, so
    beyond the inherited ``retries``/``aborted_users`` (the tracker's, per
    *user*: a reclaimed subframe charges each of its users once) nothing
    here takes the lock; ``steals`` stays zero. ``tasks_executed`` counts
    the kernel stage calls a worker ran, ``users_processed`` its users.
    """

    worker_deaths: int = 0
    slab_overflows: int = 0
    respawns: int = 0


@dataclass
class _WorkerHandle:
    worker_id: int
    # Any, not object: the spawn context's Process/Connection classes are
    # picked at runtime and mypy cannot see their methods through object.
    process: Any
    conn: Any
    pid: int
    slab: SharedMemory
    busy: dict | None = None  # the task currently dispatched to it
    ready: bool = False  # its ``ready`` message arrived
    dead: bool = False
    expect_death: bool = False  # a die-task was sent: death is planned


class MultiprocessRuntime(Runtime):
    """Spawn-pool execution of the benchmark on real processes.

    The API is :class:`~repro.sched.core.Runtime`'s (``start``/``submit``/
    ``poll``/``drain``/``close``/``run``/``collect_results``), the same
    surface as every other backend. The pool persists across ``run()``
    calls between :meth:`start` and :meth:`close`, which amortizes spawn
    cost (each worker re-imports NumPy) across the differential matrix.

    Parameters
    ----------
    num_workers:
        Worker process count. Throughput scales with physical cores;
        there is no GIL in the way.
    observers:
        Optional event observers; events carry a ``process_id`` payload
        field and are emitted *only from the parent's event loop*, so
        observers here never see concurrent calls.
    faults:
        Optional :class:`~repro.faults.injector.ThreadFaultInjector` (or
        bare :class:`~repro.faults.plan.FaultPlan`). ``WORKER_DEATH``
        becomes a real self-``SIGKILL`` in the target worker;
        ``WORKER_HANG`` sleeps inside the worker; ``TASK_EXCEPTION``
        fails the dispatched subframe without executing it.
    resilience:
        Retry budget, per-subframe wall deadline, poll cadence, and
        drain timeout (:class:`~repro.faults.watchdog.ResilienceConfig`).
    ledger:
        Optional externally-owned ledger; a fresh one is created at
        :meth:`start` otherwise.
    respawn:
        Opt into supervised worker respawn
        (:class:`~repro.sched.supervisor.WorkerSupervisor`); ``False``
        keeps the historical fail-stop semantics.
    """

    def __init__(
        self,
        num_workers: int = 2,
        observers=None,
        faults=None,
        resilience: ResilienceConfig | None = None,
        ledger: SubframeLedger | None = None,
        respawn: bool = False,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        stats = MultiprocessStats(
            tasks_executed=[0] * num_workers,
            steals=[0] * num_workers,
            users_processed=[0] * num_workers,
        )
        super().__init__(
            stats, observers, faults, resilience, ledger,
            tags={"process_id": os.getpid()},
        )
        self.num_workers = num_workers
        self._ctx = get_context("spawn")
        self._workers: list[_WorkerHandle] = []
        self._spawned_pids: list[int] = []
        self._queue: deque[dict] = deque()
        self._next_task_id = 0
        #: The grid segment of each dispatched, still unresolved subframe.
        self._grid_of: dict[int, SharedMemory] = {}
        #: Segments whose subframe resolved, kept mapped for the next grid.
        self._idle_grids: list[SharedMemory] = []
        self._tracker.listeners.append(self._release_grid)
        #: The attached :class:`WorkerSupervisor`, or ``None``.
        self.supervisor = WorkerSupervisor(num_workers) if respawn else None

    # ------------------------------------------------------------ transport
    def _start(self) -> None:
        """Spawn the worker pool and wait until every worker is ready
        (expensive: each child re-imports NumPy)."""
        try:
            for worker_id in range(self.num_workers):
                self._workers.append(self._spawn_worker(worker_id))
            self._spawned_pids = [worker.pid for worker in self._workers]
            # Bounded: a host too loaded to import in time starts unready, as
            # it always did; a worker that dies first is found by this poll.
            deadline = monotonic_ns() + ns_from_s(watchdog.JOIN_TIMEOUT_S)
            while monotonic_ns() < deadline and not all(
                worker.ready or worker.dead for worker in self._workers
            ):
                self.poll(WATCHDOG_POLL_S)
        except BaseException:
            # A later spawn failed: release the slabs of the workers that
            # *did* start, or they would leak. Found by dogfooding REP511.
            self._close()
            raise

    def _spawn_worker(self, worker_id: int) -> _WorkerHandle:
        """Spawn one worker process into the given slot id."""
        slab = SharedMemory(create=True, size=DEFAULT_SLAB_BYTES)
        try:
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main,
                args=(worker_id, child_conn, slab.name),
                daemon=True,
                name=f"repro-mp-worker-{worker_id}",
            )
            process.start()
        except BaseException:
            # This worker's slab has no _WorkerHandle yet; nothing else
            # will ever release it.
            slab.close()
            slab.unlink()
            raise
        child_conn.close()  # keep one writer so EOF propagates on death
        return _WorkerHandle(
            worker_id=worker_id,
            process=process,
            conn=parent_conn,
            pid=process.pid,
            slab=slab,
        )

    def _close(self) -> None:
        """Shut the pool down and release every shared segment."""
        for worker in self._workers:
            if not worker.dead:
                self._send(worker, None)
        for worker in self._workers:
            worker.process.join(timeout=watchdog.JOIN_TIMEOUT_S)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            worker.conn.close()
            worker.slab.close()
            worker.slab.unlink()
        for shm in [*self._grid_of.values(), *self._idle_grids]:
            shm.close()
            shm.unlink()
        self._grid_of.clear()
        self._idle_grids.clear()
        self._workers.clear()
        self._queue.clear()

    def _enqueue(self, pending: Pending) -> None:
        """Enqueue the subframe as one task (its grid is shared at dispatch,
        so the segments in rotation are bounded by the pool, not the backlog)."""
        task_id = self._next_task_id
        self._next_task_id += 1
        self._queue.append(
            {
                "task_id": task_id,
                "pending": pending,
                "wire": {
                    "task_id": task_id,
                    "subframe": pending.index,
                    "slices": pending.subframe.slices,
                },
            }
        )
        self.poll(0.0)

    @property
    def process_ids(self) -> list[int]:
        """OS pids of the pool, indexed by worker id (for tests/traces).

        Survives :meth:`close` so callers can correlate a finished run's
        event stream (``process_id`` payloads) with the pool that
        produced it.
        """
        return list(self._spawned_pids)

    # ------------------------------------------------------------ event loop
    def poll(self, timeout: float = 0.0) -> None:
        """One event-loop step: dispatch, then collect results and deaths.

        Single-threaded by design: ``submit``, ``poll`` and ``drain`` must
        all come from one thread (the serve loop's, or the batch caller's).
        """
        # Deadlines first, so an expired subframe is skipped instead of
        # dispatched.
        self._tracker.expire_deadlines()
        self._service_supervisor()
        self._dispatch_ready()
        live = [worker for worker in self._workers if not worker.dead]
        if not live:
            if self.supervisor is not None and self.supervisor.pending:
                # Every slot is dead but a respawn is scheduled: wait out
                # (part of) the backoff instead of busy-spinning callers.
                if timeout > 0:
                    time.sleep(min(timeout, 0.005))
            else:
                # Nobody left to do the work and no respawn scheduled:
                # account it as aborted instead of spinning until the
                # drain timeout.
                self._tracker.abort_all("all workers dead")
            return
        waitables: dict[object, _WorkerHandle] = {}
        for worker in live:
            waitables[worker.conn] = worker
            waitables[worker.process.sentinel] = worker
        for obj in _connection_wait(list(waitables), timeout=timeout):
            worker = waitables[obj]
            if worker.dead:
                continue
            # Drain any replies first either way: a result sent just
            # before death must not be lost to the sentinel firing first.
            self._drain_conn(worker)
            if obj is not worker.conn and not worker.process.is_alive():
                self._handle_worker_death(worker)
        self._tracker.expire_deadlines()
        self._dispatch_ready()

    def _dispatch_ready(self) -> None:
        for worker in self._workers:
            if worker.dead or worker.busy is not None:
                continue
            task = self._next_task()
            if task is None:
                return
            self._dispatch(worker, task)

    def _next_task(self) -> dict | None:
        while self._queue:
            task = self._queue.popleft()
            if not task["pending"].resolved:
                return task
        return None

    def _dispatch(self, worker: _WorkerHandle, task: dict) -> None:
        pending = task["pending"]
        index = pending.index
        if "grid" not in task["wire"]:  # a retried task keeps its segment
            task["wire"]["grid"] = self._share_grid(index, pending.subframe.grid)
        wire = dict(task["wire"])  # fault flags are per-dispatch
        faults = self.faults
        if faults is not None:
            fault = partial(
                self._tracker.fault,
                worker=worker.worker_id,
                subframe=index,
                process_id=worker.pid,
            )
            if faults.check_worker_death(worker.worker_id, index):
                fault("worker-death")
                wire["die"] = True
                worker.expect_death = True
            else:
                hang_s = faults.check_worker_hang(worker.worker_id, index)
                if hang_s is not None:
                    fault("worker-hang")
                    wire["hang_s"] = hang_s
                if faults.check_task_exception(worker.worker_id, index):
                    fault("task-exception")
                    wire["raise_exc"] = True
        if self.emit is not None:
            now = monotonic_ns()
            for user_slice in pending.subframe.slices:
                self._worker_event(
                    EventKind.USER_START, now, worker,
                    subframe=index, user=user_slice.user.user_id,
                )
        worker.busy = task
        self._send(worker, ("task", wire))

    def _drain_conn(self, worker: _WorkerHandle) -> None:
        while not worker.dead and worker.conn.poll(0):
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._handle_worker_death(worker)
                return
            self._handle_reply(worker, message)

    def _handle_reply(self, worker: _WorkerHandle, message: tuple) -> None:
        if message[0] == "ready":
            worker.ready = True
            return
        task = worker.busy
        worker.busy = None
        if task is None or task["task_id"] != message[1]:
            raise RuntimeError(
                f"worker {worker.worker_id} protocol desync: reply for task "
                f"{message[1]} while {task['task_id'] if task else None} "
                "was outstanding"
            )
        if message[0] == "ok":
            # Its next subframe first, so the worker computes while this one
            # is copied out: the next results land beside these, not on them.
            # (A failed task keeps the old order: reclaim, then poll's dispatch.)
            following = self._next_task()
            if following is not None:
                self._dispatch(worker, following)
            _, _, packed, overflowed, stage_ns = message
            if self.supervisor is not None:
                # Completed real work: reset this slot's consecutive-death
                # backoff so a much-later crash starts from the initial one.
                self.supervisor.note_progress(worker.worker_id)
            self.stats.slab_overflows += overflowed
            self.stats.tasks_executed[worker.worker_id] += len(stage_ns)
            self.stats.users_processed[worker.worker_id] += len(packed)
            self._complete_task(worker, task, packed, stage_ns)
        else:  # ("err", task_id, error, injected)
            self._reclaim(worker, task, message[2])

    def _complete_task(
        self,
        worker: _WorkerHandle,
        task: dict,
        packed: list[dict],
        stage_ns: list,
    ) -> None:
        pending = task["pending"]
        index = pending.index
        self._emit_stage_events(worker, index, stage_ns)
        results = self._unpack_results(worker, packed)
        # A subframe already resolved (deadline abort) emits no USER_FINISH,
        # so every user is finished exactly once — killed workers never
        # reply, and their retried subframe replies from another worker.
        # The tracker counts it as late.
        if not pending.resolved and self.emit is not None:
            now = monotonic_ns()
            for result in results:
                self._worker_event(
                    EventKind.USER_FINISH, now, worker,
                    subframe=index, user=result.user_id,
                )
        self._tracker.complete(pending, range(len(results)), results)

    def _worker_event(
        self, kind: EventKind, t: int, worker: _WorkerHandle, **data
    ) -> None:
        """One event on ``worker``'s lane, tagged with its pid."""
        if self.emit is not None:
            data["process_id"] = worker.pid
            self.emit(Event(kind, t, worker.worker_id, data))

    def _emit_stage_events(
        self, worker: _WorkerHandle, index: int, stage_ns: list
    ) -> None:
        """Replay a reply's worker-side stage windows as task events."""
        if self.emit is None:
            return
        for kernel, begin, end, batch in stage_ns:
            task = dict(kernel=kernel, stolen=False, subframe=index, batch=batch)
            self._worker_event(EventKind.TASK_START, begin, worker, **task)
            self._worker_event(EventKind.TASK_FINISH, end, worker, **task)

    def _unpack_results(
        self, worker: _WorkerHandle, packed: list[dict]
    ) -> list[UserResult]:
        results = []
        for entry in packed:
            if "inline" in entry:
                payload, llrs = entry["inline"]  # already private copies
            else:
                payload = self._copy_from_slab(worker, entry["payload"])
                llrs = self._copy_from_slab(worker, entry["llrs"])
            results.append(
                UserResult(
                    user_id=entry["user"],
                    payload=payload,
                    crc_ok=entry["crc_ok"],
                    llrs=llrs,
                )
            )
        return results

    def _copy_from_slab(
        self, worker: _WorkerHandle, descriptor: tuple
    ) -> np.ndarray:
        offset, shape, dtype = descriptor
        view = np.ndarray(
            tuple(shape),
            dtype=np.dtype(dtype),
            buffer=worker.slab.buf,
            offset=offset,
        )
        return view.copy()

    # --------------------------------------------------- faults / retries
    def _handle_worker_death(self, worker: _WorkerHandle) -> None:
        """A pool process died: record it, reclaim its orphaned subframe."""
        if worker.dead:
            return
        worker.dead = True
        injected = worker.expect_death
        if injected:
            error = "killed by injected fault (SIGKILL)"
            self.stats.worker_deaths += 1
        else:
            exitcode = worker.process.exitcode
            error = f"worker process died unexpectedly (exitcode {exitcode})"
        due = None
        if self.supervisor is not None:
            due = self.supervisor.record_death(worker.worker_id, monotonic_ns())
        # Under an active supervisor a death is an incident, not a
        # verdict: the slot respawns, so nothing is fatal unless
        # crash-loop detection already degraded the pool to fail-stop
        # (due is None then, restoring the historical semantics).
        fatal = due is None and not injected
        self._tracker.worker_failed(
            WorkerFailure(worker.worker_id, error, fatal=fatal, injected=injected)
        )
        task = worker.busy
        worker.busy = None
        if task is not None:
            self._reclaim(worker, task, "worker death")
        if due is not None:
            # A replacement is scheduled: keep the remaining work queued
            # for it instead of aborting.
            return
        all_dead = all(w.dead for w in self._workers)
        if all_dead or fatal:
            self._tracker.abort_all(
                "all workers dead" if all_dead else f"worker failure: {error}"
            )

    # ------------------------------------------------------------ supervision
    def _service_supervisor(self) -> None:
        """Respawn every dead slot whose backoff expired."""
        supervisor = self.supervisor
        if supervisor is None or not self._started or not supervisor.pending:
            return
        now = monotonic_ns()
        for slot, worker in enumerate(self._workers):
            if not worker.dead:
                continue
            due = supervisor.respawn_due(worker.worker_id)
            if due is not None and now >= due:
                self._respawn_worker(slot, worker, supervisor)

    def _respawn_worker(
        self, slot: int, corpse: _WorkerHandle, supervisor: WorkerSupervisor
    ) -> None:
        """Replace one dead slot with a fresh process (same worker id)."""
        replacement = self._spawn_worker(corpse.worker_id)
        # Reap the corpse and release its resources. Its slab may still
        # back descriptors of replies drained earlier, but every result
        # is copied out of the slab on receipt, so unlinking is safe.
        corpse.process.join(timeout=0)
        corpse.conn.close()
        corpse.slab.close()
        corpse.slab.unlink()
        self._workers[slot] = replacement
        self._spawned_pids.append(replacement.pid)
        now = monotonic_ns()
        supervisor.note_respawn(corpse.worker_id, now)
        self.stats.respawns += 1
        if self.emit is not None:
            self.emit(
                Event(
                    EventKind.WORKER_RESPAWN,
                    now,
                    corpse.worker_id,
                    {
                        "worker": corpse.worker_id,
                        "process_id": replacement.pid,
                        "respawns": supervisor.respawns,
                        "backoff_s": supervisor.last_backoff_s(
                            corpse.worker_id
                        ),
                    },
                )
            )

    def _reclaim(self, worker: _WorkerHandle, task: dict, reason: str) -> None:
        """A subframe failed or lost its worker: the tracker retries it
        within the budget (each of its users charged once) or aborts it."""
        pending = task["pending"]
        user_ids = [s.user.user_id for s in pending.subframe.slices]
        if self._tracker.fail(
            pending, None, user_ids, reason, worker.worker_id,
            process_id=worker.pid,
        ):
            # Reclaimed work goes to the queue head so recovery from a
            # killed worker is prompt, not behind the whole backlog.
            self._queue.appendleft(task)

    # --------------------------------------------------------- shared memory
    def _share_grid(self, index: int, grid: np.ndarray) -> tuple[str, tuple]:
        """Copy ``grid`` into a segment owned by subframe ``index`` until it
        resolves; the ``(name, shape)`` a worker needs to view it."""
        source = np.ascontiguousarray(grid, dtype=COMPLEX_DTYPE)
        # Most recently idled first: the likeliest to be mapped and warm in
        # both workers, and it keeps the set in rotation small.
        shm = next(
            (s for s in reversed(self._idle_grids) if s.size >= source.nbytes), None
        )
        if shm is None:
            shm = SharedMemory(create=True, size=source.nbytes)
        else:
            self._idle_grids.remove(shm)
        self._grid_of[index] = shm
        np.ndarray(source.shape, dtype=COMPLEX_DTYPE, buffer=shm.buf)[...] = source
        return shm.name, source.shape

    def _release_grid(self, result, state, t_ns: int) -> None:
        """Terminal listener: recycle the resolved subframe's grid segment."""
        index = result.subframe_index
        shm = self._grid_of.pop(index, None)
        if shm is None:
            return
        # A straggler (its subframe resolved by deadline or abort while the
        # worker still holds the task) reads this segment: never rewrite it.
        held = any(
            worker.busy is not None and worker.busy["pending"].index == index
            for worker in self._workers
        )
        idle_bytes = sum(idle.size for idle in self._idle_grids)
        if not held and idle_bytes + shm.size <= _IDLE_GRID_BYTES:
            self._idle_grids.append(shm)
            return
        # Workers drop their cached mapping at the next message; Linux
        # keeps an unlinked segment alive until the last mapping closes,
        # so the straggler still reads valid memory.
        for worker in self._workers:
            if not worker.dead:
                self._send(worker, ("forget", [shm.name]))
        shm.close()
        shm.unlink()

    def _send(self, worker: _WorkerHandle, message) -> bool:
        try:
            worker.conn.send(message)
        except (BrokenPipeError, OSError):
            # The worker died between polls; the death handler reclaims
            # whatever task it held (including one just marked busy).
            self._handle_worker_death(worker)
            return False
        return True
