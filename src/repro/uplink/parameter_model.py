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
"""

from __future__ import annotations

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
        independently per subframe index, so the sequence is reproducible
        and random-access: ``uplink_parameters(i)`` always returns the same
        users for the same ``(seed, i)``.
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

    def _rng_for(self, subframe_index: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, subframe_index))

    def uplink_parameters(self, subframe_index: int) -> list[UserParameters]:
        """Generate one subframe's users per the Fig. 6 / Fig. 10 pseudocode."""
        return draw_users(
            self._rng_for(subframe_index),
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
