"""Per-kernel cycle cost model for the TILEPro64-like timing simulator.

The paper measures *activity* — useful compute cycles over total cycles
(Eqs. 1-2) — on real hardware. We substitute an analytic cost model with
the properties the paper measures (Fig. 11):

* per-user compute cycles are **linear in the PRB count** for a fixed
  (layers, modulation) configuration;
* the slope grows with the layer count (channel estimation, antenna
  combining, and demapping all scale with layers; the combiner-weight
  solve adds a super-linear layer term);
* the slope grows with modulation order: soft demapping and the per-bit
  work are elementwise over (data symbol, layer), so they are priced
  inside the ``12 × layers`` symbol tasks, and the modulation spread of
  Fig. 11 comes from there; the serial tail keeps only the deinterleave
  (turbo decoding is a pass-through).

The absolute scale is **calibrated** the same way the paper's numbers come
about: a single maximum user (200 PRBs, 4 layers, 64-QAM) saturates 62
workers at the observed one-subframe-per-5-ms rate, i.e. its cycles equal
(just under) ``62 × 5 ms × f_clk``.

Every task also carries a constant scheduling/locality overhead
(:data:`TASK_OVERHEAD_CYCLES`) that is *not* proportional to PRBs — this is
what the paper's origin-through linear estimator (Eq. 3) cannot see, and
one source of its small estimation error (Fig. 12).

The priced stage program of a user *shape* — ``(num_prb, layers,
modulation)`` on the :data:`~repro.phy.params.NUM_RX_ANTENNAS` receive
antennas — is built once per :class:`CostModel` and looked up afterwards
(:meth:`CostModel.stage_program`), as the paper's own estimator looks up
``k_{L,M}`` (Eqs. 3-4): a power study prices every user of every subframe
under every policy, out of at most 100 × 4 × 3 shapes. The table is per
instance because the scale is, and it is fixed at construction.
``machine`` is deliberately not part of the key and is never read again
after calibration: re-assigning ``cost.machine`` changes the dispatch
interval a simulator runs at, not what a task costs
(``benchmarks/test_ablation_delta.py`` depends on exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..phy.params import DATA_SYMBOLS_PER_SUBFRAME, NUM_RX_ANTENNAS, Modulation
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
# maximum user (200 PRB / 4 layers / 64-QAM): channel estimation ~10 %,
# combiner weights ~0.7 % (serial join), per-symbol combining + IFFT +
# demap + per-bit ~89 %, deinterleave tail ~0.3 % (serial join).
# Demapping is the only modulation-sensitive kernel because turbo decoding
# is a pass-through; it is elementwise over (symbol, layer), so it rides in
# the symbol tasks and the serial tail stays short enough that every
# drawable shape's span fits IN_FLIGHT_BOUND dispatch intervals. The
# measured receiver's shares sit beside these in EXPERIMENTS.md.
_U_CHEST_PER_PRB = 1200.0  # per (antenna × layer) task, both slots
_U_COMBINER_LA = 30.0  # per PRB × layer × antenna
_U_COMBINER_L3 = 12.0  # per PRB × layers³ (the per-subcarrier solve)
_U_SYMBOL_PER_PRB = 1800.0  # per (data symbol × layer) task
_U_DEINTERLEAVE = 10.0  # per PRB × data symbol × layer
_U_DEMAP = {
    Modulation.QPSK: 200.0,
    Modulation.QAM16: 600.0,
    Modulation.QAM64: 1500.0,
}
_U_PER_BIT = 40.0  # CRC + bit shuffling, per PRB × symbol × layer × bit

#: Fraction of the machine's per-subframe cycle budget the maximum single
#: user (200 PRB / 4 layers / 64-QAM) consumes: just under 1.0, so the
#: calibration point sits at ~100 % activity.
SATURATION_FRACTION = 0.98

#: Constant per-task cost in cycles (scheduling, cache warm-up, steal
#: traffic).
TASK_OVERHEAD_CYCLES = 6_000


@dataclass
class CostModel:
    """Prices each user shape's Fig. 5 stage program in cycles.

    ``machine`` is the machine whose budget calibrates the absolute scale:
    the maximum single user consumes :data:`SATURATION_FRACTION` of it.
    """

    machine: MachineSpec = field(default_factory=MachineSpec)

    def __post_init__(self) -> None:
        units = self._user_units(200, 4, Modulation.QAM64)
        budget = SATURATION_FRACTION * self.machine.cycles_per_subframe_budget
        self._scale = budget / units
        # Keyed (num_prb, layers, modulation, slot_pipelined).
        self._programs: dict[tuple, tuple[tuple, ...]] = {}
        self._user_cycles: dict[tuple, int] = {}

    # -------------------------------------------------------------- units
    @staticmethod
    def _chest_units(num_prb: int) -> float:
        return _U_CHEST_PER_PRB * num_prb

    @staticmethod
    def _combiner_units(num_prb: int, layers: int) -> float:
        return num_prb * (
            _U_COMBINER_LA * layers * NUM_RX_ANTENNAS + _U_COMBINER_L3 * layers**3
        )

    @staticmethod
    def _symbol_units(num_prb: int, modulation: Modulation) -> float:
        """One (data symbol × layer) task: combine, IFFT, demap, per-bit."""
        demap = _U_DEMAP[modulation] + _U_PER_BIT * modulation.bits_per_symbol
        return num_prb * (_U_SYMBOL_PER_PRB + demap)

    @staticmethod
    def _finalize_units(num_prb: int, layers: int) -> float:
        return num_prb * DATA_SYMBOLS_PER_SUBFRAME * layers * _U_DEINTERLEAVE

    def _user_units(self, num_prb: int, layers: int, modulation: Modulation) -> float:
        symbols = DATA_SYMBOLS_PER_SUBFRAME * layers
        return (
            NUM_RX_ANTENNAS * layers * self._chest_units(num_prb)
            + self._combiner_units(num_prb, layers)
            + symbols * self._symbol_units(num_prb, modulation)
            + self._finalize_units(num_prb, layers)
        )

    # -------------------------------------------------------------- cycles
    def _cycles(self, units: float) -> int:
        """One task's price: its scaled work plus the per-task overhead."""
        return int(round(units * self._scale)) + TASK_OVERHEAD_CYCLES

    def stage_program(
        self, user: UserParameters, slot_pipelined: bool = False
    ) -> tuple[tuple, ...]:
        """The user's Fig. 5 stage program, priced: what the simulator runs.

        Stages in order, each either ``("par", (cycles, ...), kernel)``, a
        fan-out whose tasks any core may steal, or ``("ser", cycles,
        kernel)``, a join the user thread runs. ``kernel`` is one of
        :data:`repro.uplink.tasks.KERNEL_KINDS` and labels the stage's task
        events. The default is the paper's whole-subframe sequence:
        ``antennas × layers`` chest tasks, the combiner, ``12 × layers``
        symbol tasks, finalize. ``slot_pipelined`` estimates, combines and
        demodulates each slot in turn (an ablation on Fig. 5) without
        changing the user's total. A shape is priced the first time it is
        seen; its immutable program is shared by every user of it after.
        """
        key = (user.num_prb, user.layers, user.modulation, slot_pipelined)
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = self._price(*key)
        return program

    def _price(
        self,
        num_prb: int,
        layers: int,
        modulation: Modulation,
        slot_pipelined: bool,
    ) -> tuple[tuple, ...]:
        chest = self._cycles(self._chest_units(num_prb))
        combiner = self._cycles(self._combiner_units(num_prb, layers))
        symbol = self._cycles(self._symbol_units(num_prb, modulation))
        finalize = self._cycles(self._finalize_units(num_prb, layers))
        n_chest = NUM_RX_ANTENNAS * layers
        n_symbol = DATA_SYMBOLS_PER_SUBFRAME * layers
        if not slot_pipelined:
            return (
                ("par", (chest,) * n_chest, "chest"),
                ("ser", combiner, "combiner"),
                ("par", (symbol,) * n_symbol, "symbol"),
                ("ser", finalize, "finalize"),
            )
        # Slot 0 takes the floor half of each chest task and of the
        # combiner, slot 1 the rest, so an odd price loses no cycle.
        half_chest, half_comb, half_data = chest // 2, combiner // 2, n_symbol // 2
        return (
            ("par", (half_chest,) * n_chest, "chest"),
            ("ser", half_comb, "combiner"),
            ("par", (symbol,) * half_data, "symbol"),
            ("par", (chest - half_chest,) * n_chest, "chest"),
            ("ser", combiner - half_comb, "combiner"),
            ("par", (symbol,) * (n_symbol - half_data), "symbol"),
            ("ser", finalize, "finalize"),
        )

    def user_cycles(self, user: UserParameters) -> int:
        """Total compute cycles of one user: the sum over its program."""
        key = (user.num_prb, user.layers, user.modulation)
        total = self._user_cycles.get(key)
        if total is None:
            total = self._user_cycles[key] = sum(
                sum(cycles) if kind == "par" else cycles
                for kind, cycles, _ in self.stage_program(user)
            )
        return total

    def user_activity(self, user: UserParameters) -> float:
        """This user's share of the per-dispatch-interval cycle budget."""
        return self.user_cycles(user) / self.machine.cycles_per_subframe_budget
