"""Task decomposition of per-user processing (Section III, Fig. 5).

A user's subframe processing is split exactly as the paper describes:

* **Channel-estimation tasks** — one per (receive antenna × layer), up to
  4 × 4 = 16 tasks. Each task runs the matched-filter/IFFT/window/FFT chain
  for its antenna-layer pair in both slots.
* **Combiner-weight computation** — a join step executed by the user
  thread once all channel-estimation tasks have finished ("considers all
  the receiver channels and layers, and is therefore not easily
  parallelized").
* **Data tasks** — one per (data symbol × layer), up to 12 × 4 = 48 tasks
  across the subframe's two slots (the paper quotes 24 per slot at four
  layers). Each performs antenna combining and the SC-FDMA IFFT.
* **Finalize** — a join step executed by the user thread: deinterleave,
  soft demap, turbo decode (pass-through), CRC.

:class:`UserJob` carries the executable numpy closures of this graph for
the threaded runtime. The serial backend does not use them: it runs
:func:`repro.phy.chain.process_user`, so the job's results are checked
against an implementation that shares only the stage functions. The timing
simulator runs the same graph as a priced stage program,
:meth:`repro.sim.cost.CostModel.stage_program`;
``tests/uplink/test_serial_and_tasks.py`` checks that the job's fan-outs
equal the program's, and ``tests/sched/test_stage_program.py`` that the
threaded runtime and the simulator run the same tasks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..phy.chain import UserResult, combiner_stage, finalize_user, symbol_task
from ..phy.chest import chest_task
from ..phy.params import (
    DATA_SYMBOLS_PER_SUBFRAME,
    REFERENCE_SYMBOL_INDEX,
    SLOTS_PER_SUBFRAME,
    SYMBOLS_PER_SLOT,
)
from ..phy.transmitter import data_symbol_indices
from .subframe import UserSlice

__all__ = ["KERNEL_KINDS", "UserJob"]

#: The four per-user kernels of Fig. 5, in stage order. This is the
#: canonical attribution key set for the profiling layer: both backends
#: label their task events with one of these names, and
#: :meth:`repro.obs.profiling.Profiler.kernel_breakdown` reports in this
#: order.
KERNEL_KINDS: tuple[str, ...] = ("chest", "combiner", "symbol", "finalize")


class UserJob:
    """Executable task graph for one user in one subframe.

    Drives the Fig. 5 stages over real data. The job is *not* thread-safe
    by itself: the runtime must call :meth:`chest_tasks` / :meth:`run_combiner`
    / :meth:`data_tasks` / :meth:`finalize` in stage order, with whatever
    synchronization it uses to ensure each stage's tasks completed (the
    closures themselves may run concurrently — they write disjoint slots of
    pre-allocated arrays).
    """

    def __init__(self, user_slice: UserSlice, grid: np.ndarray) -> None:
        self.user = user_slice.user
        self.received = user_slice.view(grid)
        self.antennas = self.received.shape[0]
        self.layers = self.user.layers
        self.num_sc = user_slice.num_subcarriers
        self._channel = np.empty(
            (SLOTS_PER_SUBFRAME, self.antennas, self.layers, self.num_sc),
            dtype=np.complex128,
        )
        self._noise = np.empty((SLOTS_PER_SUBFRAME, self.antennas, self.layers))
        self._weights: list[np.ndarray | None] = [None] * SLOTS_PER_SUBFRAME
        self._noise_after: list[np.ndarray | None] = [None] * SLOTS_PER_SUBFRAME
        self._layer_symbols = np.empty(
            (self.layers, DATA_SYMBOLS_PER_SUBFRAME, self.num_sc), dtype=np.complex128
        )
        self.result: UserResult | None = None

    # ----- stage 1: channel estimation ---------------------------------
    def chest_tasks(self) -> list[Callable[[], None]]:
        """One closure per (antenna, layer); each covers both slots."""
        tasks = []
        for antenna in range(self.antennas):
            for layer in range(self.layers):
                tasks.append(self._make_chest_task(antenna, layer))
        return tasks

    def _make_chest_task(self, antenna: int, layer: int) -> Callable[[], None]:
        def run() -> None:
            for slot in range(SLOTS_PER_SUBFRAME):
                ref_sym = slot * SYMBOLS_PER_SLOT + REFERENCE_SYMBOL_INDEX
                estimate, noise = chest_task(self.received[antenna, ref_sym, :], layer)
                self._channel[slot, antenna, layer, :] = estimate
                self._noise[slot, antenna, layer] = noise

        return run

    # ----- stage 2: combiner weights (user thread) ----------------------
    def run_combiner(self) -> None:
        for slot in range(SLOTS_PER_SUBFRAME):
            estimate = combiner_stage(
                self._channel[slot], float(np.mean(self._noise[slot]))
            )
            self._weights[slot] = estimate.weights
            self._noise_after[slot] = estimate.noise_after_combining

    # ----- stage 3: data demodulation -----------------------------------
    def data_tasks(self) -> list[Callable[[], None]]:
        """One closure per (data symbol, layer) across both slots."""
        tasks = []
        for row, sym in enumerate(data_symbol_indices()):
            for layer in range(self.layers):
                tasks.append(self._make_symbol_task(row, sym, layer))
        return tasks

    def _make_symbol_task(self, row: int, sym: int, layer: int) -> Callable[[], None]:
        def run() -> None:
            slot = sym // SYMBOLS_PER_SLOT
            weights = self._weights[slot]
            if weights is None:
                raise RuntimeError("data task ran before combiner stage")
            self._layer_symbols[layer, row, :] = symbol_task(
                self.received[:, sym, :], weights, layer
            )

        return run

    # ----- stage 4: finalize (user thread) -------------------------------
    def finalize(self) -> UserResult:
        noise_pls = np.stack(
            [na.mean(axis=1) for na in self._noise_after], axis=1
        )
        self.result = finalize_user(
            self.user.allocation,
            self._layer_symbols,
            noise_pls,
            user_id=self.user.user_id,
        )
        return self.result
