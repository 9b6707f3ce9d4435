"""Per-kernel cycle cost model for the TILEPro64-like timing simulator.

The paper measures *activity* — useful compute cycles over total cycles
(Eqs. 1-2) — on real hardware. We substitute an analytic cost model with
the properties the paper measures (Fig. 11):

* per-user compute cycles are **linear in the PRB count** for a fixed
  (layers, modulation) configuration;
* the slope grows with the layer count (channel estimation, antenna
  combining, and demapping all scale with layers; the combiner-weight
  solve adds a super-linear layer term);
* the slope grows with modulation order (soft demapping dominates the
  serial tail since turbo decoding is a pass-through).

The absolute scale is **calibrated** the same way the paper's numbers come
about: a single maximum user (200 PRBs, 4 layers, 64-QAM) saturates 62
workers at the observed one-subframe-per-5-ms rate, i.e. its cycles equal
(just under) ``62 × 5 ms × f_clk``.

Every task also carries a constant scheduling/locality overhead
(``task_overhead_cycles``) that is *not* proportional to PRBs — this is
what the paper's origin-through linear estimator (Eq. 3) cannot see, and
one source of its small estimation error (Fig. 12).

The price of a user *shape* — ``(num_prb, layers, modulation, antennas)``
— is computed once per :class:`CostModel` and looked up afterwards
(:meth:`CostModel.stage_cycles`), as the paper's own estimator looks up
``k_{L,M}`` (Eqs. 3-4): a power study prices every user of every subframe
under every policy, out of at most 100 × 4 × 3 shapes. The table is per
instance because the scale and the per-task overhead are, and both are
fixed at construction.
``machine`` is deliberately not part of the key and is never read again
after calibration: re-assigning ``cost.machine`` changes the dispatch
interval a simulator runs at, not what a task costs
(``benchmarks/test_ablation_delta.py`` depends on exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..phy.params import Modulation
from ..uplink.tasks import (
    TaskDescriptor,
    describe_user_tasks,
    describe_user_tasks_batched,
)
from ..uplink.user import UserParameters

__all__ = ["MachineSpec", "CostModel", "DEFAULT_MACHINE"]


@dataclass(frozen=True)
class MachineSpec:
    """Static parameters of the simulated machine (TILEPro64-like).

    The paper dedicates one core to drivers and one to the maintenance
    thread, leaving 62 worker cores; at maximum workload it sustains one
    subframe per 5 ms.
    """

    num_cores: int = 64
    num_workers: int = 62
    clock_hz: float = 700e6
    subframe_period_s: float = 5e-3  # DELTA: dispatch interval
    base_power_w: float = 14.0

    def __post_init__(self) -> None:
        if not 1 <= self.num_workers <= self.num_cores:
            raise ValueError("num_workers must be in [1, num_cores]")
        if self.clock_hz <= 0 or self.subframe_period_s <= 0:
            raise ValueError("clock and subframe period must be positive")

    @property
    def subframe_period_cycles(self) -> int:
        """DELTA in clock cycles."""
        return int(round(self.subframe_period_s * self.clock_hz))

    @property
    def cycles_per_subframe_budget(self) -> int:
        """Total worker cycles available per dispatch interval."""
        return self.num_workers * self.subframe_period_cycles


DEFAULT_MACHINE = MachineSpec()

# Abstract per-PRB cost units per kernel (see module docstring). The
# absolute scale is fixed by calibration below. Proportions for the
# maximum user (200 PRB / 4 layers / 64-QAM): channel estimation ~11 %,
# combiner weights ~3 % (serial join), per-symbol combining+IFFT ~44 %,
# deinterleave/demap/CRC tail ~42 % (serial join; demapping is the only
# modulation-sensitive kernel because turbo decoding is a pass-through,
# which is why the modulation slope spread in Fig. 11 comes from here).
_U_CHEST_PER_PRB = 1200.0  # per (antenna × layer) task, both slots
_U_COMBINER_LA = 150.0  # per PRB × layer × antenna
_U_COMBINER_L3 = 60.0  # per PRB × layers³ (the per-subcarrier solve)
_U_SYMBOL_PER_PRB = 1800.0  # per (data symbol × layer) task
_U_DEINTERLEAVE = 100.0  # per PRB × data symbol × layer
_U_DEMAP = {
    Modulation.QPSK: 200.0,
    Modulation.QAM16: 600.0,
    Modulation.QAM64: 1500.0,
}
_U_PER_BIT = 40.0  # CRC + bit shuffling, per PRB × symbol × layer × bit

_DATA_SYMBOLS = 12


@dataclass
class CostModel:
    """Maps :class:`TaskDescriptor` work records to cycle costs.

    Parameters
    ----------
    machine:
        The machine whose budget calibrates the absolute scale.
    saturation_fraction:
        Fraction of the machine's per-subframe cycle budget consumed by the
        maximum single user (200 PRB / 4 layers / 64-QAM). Just under 1.0
        so the calibration point sits at ~100 % activity.
    task_overhead_cycles:
        Constant per-task cost (scheduling, cache warm-up, steal traffic).
    """

    machine: MachineSpec = field(default_factory=MachineSpec)
    saturation_fraction: float = 0.98
    task_overhead_cycles: int = 6_000

    def __post_init__(self) -> None:
        if not 0.0 < self.saturation_fraction <= 1.0:
            raise ValueError("saturation_fraction must be in (0, 1]")
        if self.task_overhead_cycles < 0:
            raise ValueError("task_overhead_cycles must be >= 0")
        max_user = UserParameters(
            user_id=0, num_prb=200, layers=4, modulation=Modulation.QAM64
        )
        units = self._user_units(max_user.num_prb, 4, Modulation.QAM64, antennas=4)
        budget = self.saturation_fraction * self.machine.cycles_per_subframe_budget
        self._scale = budget / units
        self._stage_cycles: dict[
            tuple[int, int, Modulation, int], tuple[int, int, int, int, int, int]
        ] = {}

    # -------------------------------------------------------------- units
    @staticmethod
    def _chest_units(num_prb: int) -> float:
        return _U_CHEST_PER_PRB * num_prb

    @staticmethod
    def _combiner_units(num_prb: int, layers: int, antennas: int) -> float:
        return num_prb * (_U_COMBINER_LA * layers * antennas + _U_COMBINER_L3 * layers**3)

    @staticmethod
    def _symbol_units(num_prb: int) -> float:
        return _U_SYMBOL_PER_PRB * num_prb

    @staticmethod
    def _finalize_units(num_prb: int, layers: int, bits_per_symbol: int) -> float:
        modulation = {2: Modulation.QPSK, 4: Modulation.QAM16, 6: Modulation.QAM64}[
            bits_per_symbol
        ]
        per_symbol = _U_DEINTERLEAVE + _U_DEMAP[modulation] + _U_PER_BIT * bits_per_symbol
        return num_prb * _DATA_SYMBOLS * layers * per_symbol

    def _user_units(
        self, num_prb: int, layers: int, modulation: Modulation, antennas: int
    ) -> float:
        return (
            antennas * layers * self._chest_units(num_prb)
            + self._combiner_units(num_prb, layers, antennas)
            + _DATA_SYMBOLS * layers * self._symbol_units(num_prb)
            + self._finalize_units(num_prb, layers, modulation.bits_per_symbol)
        )

    # -------------------------------------------------------------- cycles
    def task_cycles(self, task: TaskDescriptor) -> int:
        """Cycle cost of one schedulable task.

        The ``*_batch`` kinds are the vectorized backend's fused stage
        tasks: each carries the compute units of the whole per-task stage
        fan-out but only one ``task_overhead_cycles`` — the overhead
        collapse is the modelled benefit of batching.
        """
        if task.kind == "chest":
            units = self._chest_units(task.num_prb)
        elif task.kind == "combiner":
            units = self._combiner_units(task.num_prb, task.layers, task.antennas)
        elif task.kind == "symbol":
            units = self._symbol_units(task.num_prb)
        elif task.kind == "finalize":
            units = self._finalize_units(
                task.num_prb, task.layers, task.bits_per_symbol
            )
        elif task.kind == "chest_batch":
            units = task.antennas * task.layers * self._chest_units(task.num_prb)
        elif task.kind == "combiner_batch":
            units = self._combiner_units(task.num_prb, task.layers, task.antennas)
        elif task.kind == "symbol_batch":
            units = _DATA_SYMBOLS * task.layers * self._symbol_units(task.num_prb)
        elif task.kind == "finalize_batch":
            units = self._finalize_units(
                task.num_prb, task.layers, task.bits_per_symbol
            )
        else:
            raise ValueError(f"unknown task kind {task.kind!r}")
        return int(round(units * self._scale)) + self.task_overhead_cycles

    def stage_cycles(
        self, user: UserParameters, antennas: int = 4
    ) -> tuple[int, int, int, int, int, int]:
        """``(chest, n_chest, combiner, symbol, n_symbol, finalize)``.

        Per-task cycles and fan-out of each Fig. 5 stage for this user's
        shape, priced through :func:`describe_user_tasks` and
        :meth:`task_cycles` the first time the shape is seen (the tasks of
        one stage are identical, so one is priced) and looked up after.
        """
        key = (user.num_prb, user.layers, user.modulation, antennas)
        entry = self._stage_cycles.get(key)
        if entry is None:
            chest, combiner, data, finalize = describe_user_tasks(user, antennas)
            entry = self._stage_cycles[key] = (
                self.task_cycles(chest[0]),
                len(chest),
                self.task_cycles(combiner),
                self.task_cycles(data[0]),
                len(data),
                self.task_cycles(finalize),
            )
        return entry

    def user_cycles(self, user: UserParameters, antennas: int = 4) -> int:
        """Total compute cycles of one user (all tasks + joins)."""
        chest, n_chest, combiner, symbol, n_symbol, finalize = self.stage_cycles(
            user, antennas
        )
        return chest * n_chest + combiner + symbol * n_symbol + finalize

    def user_cycles_batched(self, user: UserParameters, antennas: int = 4) -> int:
        """Total compute cycles of one user on the vectorized backend.

        Same stage work as :meth:`user_cycles`, but charged as four fused
        tasks, so the difference between the two is exactly
        ``(num_tasks - 4) * task_overhead_cycles``.
        """
        return sum(
            self.task_cycles(t) for t in describe_user_tasks_batched(user, antennas)
        )

    def user_activity(self, user: UserParameters, antennas: int = 4) -> float:
        """This user's share of the per-dispatch-interval cycle budget."""
        return self.user_cycles(user, antennas) / self.machine.cycles_per_subframe_budget

    def subframe_cycles(self, users: list[UserParameters], antennas: int = 4) -> int:
        """Total compute cycles of a whole subframe."""
        return sum(self.user_cycles(u, antennas) for u in users)
