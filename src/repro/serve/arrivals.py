"""Seeded per-cell subframe arrival processes for ``repro serve``.

The batch entry points replay a fixed workload; a base station instead
absorbs an *arrival process*: every DELTA it learns which users the
eNodeB scheduler granted uplink resources in that subframe. This module
provides the four processes the serve loop dispatches from. Each is a
:class:`~repro.uplink.parameter_model.ParameterModel`: it answers
``uplink_parameters(tick)``, as every batch workload does, on the
same seeded, random-access RNG discipline as
:class:`~repro.uplink.parameter_model.RandomizedParameterModel`: tick
``t`` draws from ``np.random.default_rng((seed, stream, t))``, where each
process salts its key with its own stream number (2 Poisson, 3 diurnal,
4 and 5 the mMTC surge and background), so a serve run is exactly
reproducible from its seed and any tick can be queried independently.
Those generators are seeded in bulk, a block of ticks at a time, by
:class:`~repro.uplink.parameter_model.TickGenerators`; every draw is
bit-identical to the per-tick ``default_rng``:

* ``constant`` — the paper's randomized parameter model itself, so a
  single-cell constant-rate serve run is bit-exact with the equivalent
  batch ``repro run`` at the same seed;
* :class:`PoissonArrivals` — independent Poisson(``rate``) user counts
  per subframe, the classic teletraffic arrival model;
* :class:`DiurnalArrivals` — a Poisson process whose per-tick intensity
  follows the hour-by-hour
  :data:`~repro.uplink.scenarios.DEFAULT_DIURNAL_PROFILE` envelope,
  normalized so the expected arrival count over one mapped day equals
  ``daily_users`` exactly;
* :class:`MmtcBurstArrivals` — a low-rate background stream plus
  synchronized machine-device surges confined to a periodic window (the
  mMTC access-burst scenario from the related-work paper), with the
  burst component separately queryable so tests can assert it never
  fires outside its window.

Every process bounds the per-subframe user population by the carrier's
PRB budget, so :func:`repro.uplink.subframe.assign_offsets` can never
raise on a generated subframe. No module-level RNG or clock state is
created (spawn-safety: importing this module is side-effect free).
"""

from __future__ import annotations

import numpy as np

from ..phy.params import (
    MAX_PRB,
    MAX_USERS_PER_SUBFRAME,
    MIN_PRB_PER_USER,
    Modulation,
)
from ..uplink.parameter_model import (
    ParameterModel,
    RandomizedParameterModel,
    TickGenerators,
    draw_users,
)
from ..uplink.scenarios import DEFAULT_DIURNAL_PROFILE
from ..uplink.user import UserParameters
from .config import ARRIVAL_KINDS

__all__ = [
    "ARRIVAL_KINDS",
    "DiurnalArrivals",
    "MmtcBurstArrivals",
    "PoissonArrivals",
    "make_arrivals",
]

#: Hard cap on users per subframe: an all-mMTC population of
#: :data:`MIN_PRB_PER_USER`-PRB devices fills the carrier exactly.
_MAX_DEVICES = MAX_PRB // MIN_PRB_PER_USER

#: Normalizer of the hourly weights: one day's intensities sum to
#: ``daily_users``.
_DIURNAL_WEIGHT_SUM = float(sum(DEFAULT_DIURNAL_PROFILE))

#: The ``mmtc`` mix's devices, built and validated once: a tick's users are
#: the first ``count`` of them.
_MMTC_DEVICES = tuple(
    UserParameters(user_id, MIN_PRB_PER_USER, 1, Modulation.QPSK)
    for user_id in range(_MAX_DEVICES)
)


def _draw_users(
    rng: np.random.Generator, count: int, mix: str
) -> list[UserParameters]:
    """Materialize ``count`` arriving users under a traffic ``mix``.

    ``"mmtc"`` models machine devices: minimum-allocation QPSK
    single-layer uplinks, the dominant population in a synchronized
    access burst. ``"mixed"`` is the paper's Fig. 6 / Fig. 10 draw at a
    fixed probability of 0.5, modelling a mixed-traffic cell. Both stop
    early when the PRB budget is exhausted so the subframe always fits
    the carrier.
    """
    if mix == "mixed":
        return draw_users(rng, count, MAX_PRB, 0.5)
    return list(_MMTC_DEVICES[:count])


def _validated_mix(mix: str) -> str:
    if mix not in ("mmtc", "mixed"):
        raise ValueError(f"unknown traffic mix {mix!r} (mmtc or mixed)")
    return mix


class PoissonArrivals:
    """Independent Poisson(``rate``) arrivals per subframe."""

    def __init__(
        self,
        rate: float,
        seed: int = 0,
        mix: str = "mmtc",
    ) -> None:
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self.rate = float(rate)
        self.seed = seed
        self.mix = _validated_mix(mix)
        self._ticks = TickGenerators(seed, 2)

    def uplink_parameters(self, tick: int) -> list[UserParameters]:
        rng = self._ticks.gen(tick)
        count = int(min(rng.poisson(self.rate), _MAX_DEVICES))
        return _draw_users(rng, count, self.mix)


class DiurnalArrivals:
    """Poisson arrivals modulated by the 24-hour diurnal load profile.

    One mapped day spans ``subframes_per_hour * 24`` ticks (repeating
    afterwards); the per-tick intensity is the hour's
    :data:`~repro.uplink.scenarios.DEFAULT_DIURNAL_PROFILE` weight,
    normalized so that ``sum(intensity(t))`` over exactly one day equals
    ``daily_users`` — the "configured daily volume integrates
    exactly" contract the property tests assert.
    """

    def __init__(
        self,
        daily_users: float,
        seed: int = 0,
        subframes_per_hour: int = 100,
        mix: str = "mmtc",
    ) -> None:
        if daily_users < 0:
            raise ValueError("daily_users must be >= 0")
        if subframes_per_hour < 1:
            raise ValueError("subframes_per_hour must be >= 1")
        self.daily_users = float(daily_users)
        self.seed = seed
        self.subframes_per_hour = subframes_per_hour
        self.mix = _validated_mix(mix)
        self._ticks = TickGenerators(seed, 3)

    def hour_of(self, tick: int) -> int:
        if tick < 0:
            raise ValueError("tick must be >= 0")
        return (tick // self.subframes_per_hour) % len(DEFAULT_DIURNAL_PROFILE)

    def intensity(self, tick: int) -> float:
        """Expected arrivals in subframe ``tick`` (the Poisson mean)."""
        share = DEFAULT_DIURNAL_PROFILE[self.hour_of(tick)] / _DIURNAL_WEIGHT_SUM
        return self.daily_users * share / self.subframes_per_hour

    def uplink_parameters(self, tick: int) -> list[UserParameters]:
        rng = self._ticks.gen(tick)
        count = int(min(rng.poisson(self.intensity(tick)), _MAX_DEVICES))
        return _draw_users(rng, count, self.mix)


class MmtcBurstArrivals:
    """Background traffic plus synchronized machine-device surges.

    Every ``burst_period`` ticks a synchronized access event begins:
    for the next ``burst_window`` ticks an *additional*
    Poisson(``burst_size / burst_window``) device population piles onto
    the Poisson(``base_rate``) background. :meth:`burst_count` exposes
    the surge component alone and is identically zero outside the
    window — the property the burst-window test pins.
    """

    def __init__(
        self,
        base_rate: float = 1.0,
        burst_size: float = 60.0,
        burst_period: int = 100,
        burst_window: int = 10,
        seed: int = 0,
        mix: str = "mmtc",
    ) -> None:
        if base_rate < 0 or burst_size < 0:
            raise ValueError("base_rate and burst_size must be >= 0")
        if burst_period < 1:
            raise ValueError("burst_period must be >= 1")
        if not 1 <= burst_window <= burst_period:
            raise ValueError("burst_window must be in [1, burst_period]")
        self.base_rate = float(base_rate)
        self.burst_size = float(burst_size)
        self.burst_period = burst_period
        self.burst_window = burst_window
        self.seed = seed
        self.mix = _validated_mix(mix)
        # One object a stream: a tick draws both, interleaved.
        self._burst_ticks = TickGenerators(seed, 4)
        self._base_ticks = TickGenerators(seed, 5)

    def in_burst(self, tick: int) -> bool:
        if tick < 0:
            raise ValueError("tick must be >= 0")
        return tick % self.burst_period < self.burst_window

    def burst_count(self, tick: int) -> int:
        """The surge component alone: zero outside the burst window."""
        if not self.in_burst(tick):
            return 0
        rng = self._burst_ticks.gen(tick)
        return int(rng.poisson(self.burst_size / self.burst_window))

    def uplink_parameters(self, tick: int) -> list[UserParameters]:
        rng = self._base_ticks.gen(tick)
        count = int(rng.poisson(self.base_rate)) + self.burst_count(tick)
        count = min(count, _MAX_DEVICES)
        return _draw_users(rng, count, self.mix)


def make_arrivals(
    kind: str,
    seed: int = 0,
    rate: float = 4.0,
    max_users: int = MAX_USERS_PER_SUBFRAME,
    total_subframes: int = 2,
    daily_users: float = 50_000.0,
    subframes_per_hour: int = 100,
    burst_size: float = 60.0,
    burst_period: int = 100,
    burst_window: int = 10,
    mix: str = "mmtc",
) -> ParameterModel:
    """Build an arrival process by CLI name (see :data:`ARRIVAL_KINDS`)."""
    if kind == "constant":
        # The batch workload itself: total_subframes sets the Fig. 10
        # probability-ramp cycle length, exactly as ``repro run`` does, so
        # cell 0's arrivals at seed s are the subframes ``repro run --seed
        # s`` decodes (the serve-vs-batch differential).
        return RandomizedParameterModel(
            total_subframes=max(2, total_subframes), seed=seed, max_users=max_users
        )
    if kind == "poisson":
        return PoissonArrivals(rate=rate, seed=seed, mix=mix)
    if kind == "diurnal":
        return DiurnalArrivals(
            daily_users=daily_users,
            seed=seed,
            subframes_per_hour=subframes_per_hour,
            mix=mix,
        )
    if kind == "mmtc":
        return MmtcBurstArrivals(
            base_rate=rate,
            burst_size=burst_size,
            burst_period=burst_period,
            burst_window=burst_window,
            seed=seed,
            mix=mix,
        )
    raise ValueError(f"unknown arrival kind {kind!r} (choose from {ARRIVAL_KINDS})")
