"""Subframe input parameter models (Section V-A, Figs. 6 and 10).

The paper defines the model as two functions, ``init_parameter_model`` and
``uplink_parameters``; here a model is an object whose
:meth:`ParameterModel.uplink_parameters` returns the users of one subframe.

Two models are provided:

* :class:`RandomizedParameterModel` — the evaluation workload: a random
  number of users per subframe (Fig. 6), each with a randomly spread PRB
  count, and layers/modulation drawn with a probability that ramps linearly
  from 0.6 % to 100 % over the first half of the run and back down over the
  second half (Fig. 10), changing every 200 subframes.
* :class:`SteadyStateParameterModel` — a single user with fixed parameters,
  used to calibrate the workload estimator (Section VI-A).

Every seeded model here, in ``scenarios`` and in ``repro.serve.arrivals``,
draws subframe ``i`` from ``np.random.default_rng((*key, i))``'s state,
which :class:`TickGenerators` sets without building that generator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence

import numpy as np

from ..phy.params import (
    MAX_PRB,
    MAX_USERS_PER_SUBFRAME,
    MIN_PRB_PER_USER,
    Modulation,
)
from .user import UserParameters

__all__ = [
    "ParameterModel",
    "RandomizedParameterModel",
    "SteadyStateParameterModel",
    "TickGenerators",
    "TraceParameterModel",
    "DEFAULT_TOTAL_SUBFRAMES",
    "PROBABILITY_STEP_SUBFRAMES",
    "draw_users",
]

#: Length of the paper's evaluation run (Figs. 7-9, 12-16): 68 000 subframes.
DEFAULT_TOTAL_SUBFRAMES = 68_000

#: The layer/modulation probability changes every 200th subframe.
PROBABILITY_STEP_SUBFRAMES = 200

#: Fig. 10's probability ramp runs from 0.6 % to 100 %.
MIN_PROBABILITY = 0.006
MAX_PROBABILITY = 1.0

#: Ticks whose PCG64 states one vectorized pass computes: 32 bytes a tick,
#: 32 KB a block.
TICK_BLOCK = 1024

#: Blocks a :class:`TickGenerators` keeps; the oldest is dropped first.
_CACHED_BLOCKS = 4

# NumPy's SeedSequence (numpy/random/bit_generator.pyx), whose bit streams
# NumPy keeps stable: pool size, hash and mix constants.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

#: PCG64's 128-bit LCG multiplier, as 32-bit limbs, least significant first.
_PCG_MULT_LIMBS = tuple(
    (0x2360ED051FC65DA44385DF649FCCF645 >> (32 * k)) & _MASK32 for k in range(4)
)


def _int_words(value: int) -> list[int]:
    """``SeedSequence``'s entropy words of one integer: little-endian uint32
    words, and ``[0]`` for 0."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> _XSHIFT)


def _pcg64_states(entropy: list[np.ndarray]) -> np.ndarray:
    """``PCG64(SeedSequence(words))``'s state for a column of entropy words.

    ``entropy`` holds one uint32 array per entropy word, all of one length
    n; the result is an ``(n, 4)`` uint64 array of (state high, state low,
    increment high, increment low), NumPy's algorithm run on every row at
    once.
    """
    n = entropy[0].size
    hash_const = _INIT_A
    pool: list[np.ndarray] = []
    for i in range(_POOL_SIZE):
        word = entropy[i] if i < len(entropy) else np.zeros(n, np.uint32)
        mixed, hash_const = _hashmix(word, hash_const)
        pool.append(mixed)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], mixed)
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            mixed, hash_const = _hashmix(word, hash_const)
            pool[i_dst] = _mix(pool[i_dst], mixed)
    # generate_state(4, uint64): eight uint32 words, cycling the pool.
    hash_const = _INIT_B
    out = []
    for i_dst in range(8):
        value = pool[i_dst % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        out.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # Little-endian word pairs give uint64s w0..w3; seed s = w0:w1 and
    # sequence i = w2:w3 as 128-bit numbers, here as 32-bit limbs.
    seed = [out[2], out[3], out[0], out[1]]
    seq = [out[6], out[7], out[4], out[5]]
    inc = [((seq[0] << 1) | 1) & _MASK32] + [
        ((seq[k] << 1) | (seq[k - 1] >> 31)) & _MASK32 for k in range(1, 4)
    ]
    # state = ((inc + s) * M + inc) mod 2**128, PCG64's two seeding steps.
    total = _add_limbs(inc, seed)
    columns = [np.zeros(n, np.uint64) for _ in range(4)]
    for a in range(4):
        for b in range(4 - a):
            product = total[a] * np.uint64(_PCG_MULT_LIMBS[b])
            columns[a + b] += product & _MASK32
            if a + b < 3:
                columns[a + b + 1] += product >> 32
    state = _add_limbs(_carry(columns), inc)
    states = np.empty((n, 4), np.uint64)
    states[:, 0] = state[2] | (state[3] << 32)
    states[:, 1] = state[0] | (state[1] << 32)
    states[:, 2] = inc[2] | (inc[3] << 32)
    states[:, 3] = inc[0] | (inc[1] << 32)
    return states


def _carry(columns: list[np.ndarray]) -> list[np.ndarray]:
    """Normalize column sums into 32-bit limbs, dropping the carry out."""
    limbs = []
    carry = np.zeros_like(columns[0])
    for column in columns:
        column = column + carry
        limbs.append(column & _MASK32)
        carry = column >> 32
    return limbs


def _add_limbs(x: list[np.ndarray], y: list[np.ndarray]) -> list[np.ndarray]:
    return _carry([a + b for a, b in zip(x, y)])


class TickGenerators:
    """``np.random.default_rng((*key, tick))`` for any tick, seeded in bulk.

    A tick-keyed model draws subframe ``tick`` from
    ``default_rng((*key, tick))``; building that generator hashes a
    ``SeedSequence`` and seeds a ``PCG64``, many times the cost of the
    draw itself. :meth:`gen` returns a generator in exactly that state: it
    computes the PCG64 states of a block of :data:`TICK_BLOCK` ticks in
    one vectorized pass of NumPy's own seeding algorithm, keeps a bounded
    number of blocks, and sets the state of the one ``PCG64`` this object
    owns. Any tick may be asked for, in any order.

    The returned generator is valid until the next call to :meth:`gen` on
    the same object: two streams drawn interleaved need two objects.
    """

    def __init__(self, *key: int) -> None:
        self._key_words = [word for part in key for word in _int_words(part)]
        self._blocks: dict[int, np.ndarray] = {}
        self._bit_generator = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bit_generator)
        self._state = self._bit_generator.state

    def gen(self, tick: int) -> np.random.Generator:
        """The generator ``np.random.default_rng((*key, tick))`` returns."""
        tick = operator.index(tick)
        if tick < 0:
            raise ValueError("expected non-negative integer")
        index, offset = divmod(tick, TICK_BLOCK)
        block = self._blocks.get(index)
        if block is None:
            block = self._block(index)
        state_hi, state_lo, inc_hi, inc_lo = block[offset].tolist()
        self._state["state"] = {
            "state": state_hi << 64 | state_lo,
            "inc": inc_hi << 64 | inc_lo,
        }
        self._bit_generator.state = self._state
        return self._generator

    def _block(self, index: int) -> np.ndarray:
        if len(self._blocks) >= _CACHED_BLOCKS:
            del self._blocks[next(iter(self._blocks))]
        first = index * TICK_BLOCK
        # TICK_BLOCK divides 2**32, so no block crosses a word-width
        # boundary: a block's ticks share every entropy word but the lowest.
        low = np.arange(TICK_BLOCK, dtype=np.uint32) + np.uint32(first & _MASK32)
        high = first >> 32
        fixed = [np.full(TICK_BLOCK, word, np.uint32) for word in self._key_words]
        upper = [
            np.full(TICK_BLOCK, word, np.uint32)
            for word in (_int_words(high) if high else [])
        ]
        block = self._blocks[index] = _pcg64_states([*fixed, low, *upper])
        return block


def draw_users(
    rng: np.random.Generator, max_users: int, max_prb: int, prob: float
) -> list[UserParameters]:
    """One subframe's users: Fig. 6's PRB-spread loop, Fig. 10's draws.

    Users are added until ``max_users`` or until fewer than
    :data:`MIN_PRB_PER_USER` of the ``max_prb`` budget remain. Each user
    draws its PRB count, then three Bernoulli(``prob``) layer increments
    above 1, then the nested QPSK → 16QAM → 64QAM modulation draws.
    """
    users: list[UserParameters] = []
    remaining_prb = max_prb
    while len(users) < max_users and remaining_prb >= MIN_PRB_PER_USER:
        user_prb = max_prb * rng.random()
        # "Create a larger spread in number of PRBs" (Fig. 6 lines 7-15).
        distribution = rng.random()
        if distribution < 0.4:
            user_prb /= 8
        elif distribution < 0.6:
            user_prb /= 4
        elif distribution < 0.9:
            user_prb /= 2
        num_prb = int(user_prb)
        num_prb -= num_prb % 2  # allocations span both slots (PRB pairs)
        num_prb = max(MIN_PRB_PER_USER, min(num_prb, remaining_prb))
        remaining_prb -= num_prb
        layers = 1 + sum(prob > rng.random() for _ in range(3))
        modulation = Modulation.QPSK
        if prob > rng.random():
            modulation = Modulation.QAM16
            if prob > rng.random():
                modulation = Modulation.QAM64
        users.append(UserParameters(len(users), num_prb, layers, modulation))
    return users


class ParameterModel(Protocol):
    """A source of per-subframe user parameters."""

    def uplink_parameters(self, subframe_index: int) -> list[UserParameters]:
        """Users scheduled in subframe ``subframe_index``."""
        ...


class RandomizedParameterModel:
    """The paper's randomized evaluation workload (Figs. 6 + 10).

    Parameters
    ----------
    total_subframes:
        Length of one probability ramp cycle (up over the first half, down
        over the second). The paper uses 68 000; scaled-down runs keep the
        same shape by shrinking this value.
    seed:
        Seed of the model's private RNG. Subframe parameters are generated
        independently per subframe index, from
        ``np.random.default_rng((seed, i))`` (built by
        :class:`TickGenerators`), so the sequence is reproducible and
        random-access: ``uplink_parameters(i)`` always returns the same
        users for the same ``(seed, i)``. The model owns one generator and
        re-seeds it on every call, so a model is used by one thread at a
        time: its generator is valid until the next call.
    max_users, max_prb:
        Fig. 6's MAX_USERS and MAX_PRB.
    """

    def __init__(
        self,
        total_subframes: int = DEFAULT_TOTAL_SUBFRAMES,
        seed: int = 0,
        max_users: int = MAX_USERS_PER_SUBFRAME,
        max_prb: int = MAX_PRB,
        probability_step: int = PROBABILITY_STEP_SUBFRAMES,
    ) -> None:
        if total_subframes < 2:
            raise ValueError("total_subframes must be >= 2")
        if max_users < 1 or max_prb < MIN_PRB_PER_USER:
            raise ValueError("max_users/max_prb out of range")
        if probability_step < 1:
            raise ValueError("probability_step must be >= 1")
        self.total_subframes = total_subframes
        self.seed = seed
        self.max_users = max_users
        self.max_prb = max_prb
        self.probability_step = probability_step
        self._ticks = TickGenerators(seed)

    def current_probability(self, subframe_index: int) -> float:
        """Fig. 10's probability at a given subframe.

        Linear ramp 0.6 % → 100 % over the first half of the cycle, then
        back down; the value only changes every ``probability_step``
        subframes. Runs longer than one cycle repeat the triangle wave.
        """
        if subframe_index < 0:
            raise ValueError("subframe_index must be >= 0")
        position = subframe_index % self.total_subframes
        half = self.total_subframes / 2.0
        stepped = (position // self.probability_step) * self.probability_step
        if stepped <= half:
            fraction = stepped / half
        else:
            fraction = (self.total_subframes - stepped) / half
        return MIN_PROBABILITY + (MAX_PROBABILITY - MIN_PROBABILITY) * fraction

    def uplink_parameters(self, subframe_index: int) -> list[UserParameters]:
        """Generate one subframe's users per the Fig. 6 / Fig. 10 pseudocode."""
        return draw_users(
            self._ticks.gen(subframe_index),
            self.max_users,
            self.max_prb,
            self.current_probability(subframe_index),
        )

    def iter_subframes(
        self, count: int | None = None, start: int = 0
    ) -> Iterator[list[UserParameters]]:
        """Iterate subframe user lists (defaults to one full cycle)."""
        count = self.total_subframes if count is None else count
        for index in range(start, start + count):
            yield self.uplink_parameters(index)


@dataclass(frozen=True)
class SteadyStateParameterModel:
    """A single user with fixed parameters in every subframe.

    Section VI-A: "the parameter model creates a steady state with the same
    user parameter configuration (fixed number of PRBs, layers, and
    modulation)" so the per-configuration activity can be measured.
    """

    num_prb: int
    layers: int
    modulation: Modulation

    def uplink_parameters(self, subframe_index: int) -> list[UserParameters]:
        if subframe_index < 0:
            raise ValueError("subframe_index must be >= 0")
        return [
            UserParameters(
                user_id=0,
                num_prb=self.num_prb,
                layers=self.layers,
                modulation=self.modulation,
            )
        ]


class TraceParameterModel:
    """Replays a fixed, explicit sequence of subframe user lists.

    Used by the serial-vs-parallel verification (Section IV-D processes "a
    predetermined sequence of subframes") and by tests.
    """

    def __init__(self, trace: Sequence[Sequence[UserParameters]]) -> None:
        if not trace:
            raise ValueError("trace must contain at least one subframe")
        self._trace = [list(subframe) for subframe in trace]

    def __len__(self) -> int:
        return len(self._trace)

    def uplink_parameters(self, subframe_index: int) -> list[UserParameters]:
        return list(self._trace[subframe_index % len(self._trace)])
