"""Host-speed calibration: a fixed reference kernel timed between blocks.

On a shared sandbox the same code runs up to 1.5x slower for minutes at a
time (busy neighbours), which no amount of repetition inside one run
averages away. The harness therefore times a short slice of a fixed
reference kernel before and after every timed block and reports every
time-based metric *at nominal host speed*: a time is multiplied, a rate
divided, by ``host speed = NOMINAL_CALL_S / measured seconds per call``.

The kernel uses NumPy and the interpreter only - no code of the program
under test - so a change to the program cannot move it. Half of it is the
array work the receiver does (FFTs, a batched solve, a scatter, a
reduction), half is interpreter-bound, like the simulator and the serve
loop. Measured over 15 minutes on the 2-CPU sandbox, ten-second medians of
``paper_mix`` spread 11.6 % raw and 3.5 % after this correction
(``perf/BASELINE.md``).
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["HostSpeed", "NOMINAL_CALL_S", "SLICE_S"]

#: Seconds per kernel call that define host speed 1.0: the fastest the
#: calibration sandbox ran it. Pinned: changing it rescales every metric.
NOMINAL_CALL_S = 0.0022
#: Length of one calibration slice.
SLICE_S = 0.15


class HostSpeed:
    """The reference kernel and its timer."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20120401)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self._grid = cplx(24, 1200)
        self._lhs = cplx(600, 4, 4) + 4 * np.eye(4)
        self._rhs = cplx(600, 4, 4)
        self._order = rng.permutation(50_000)
        self._stream = cplx(50_000)
        self._out = np.empty_like(self._stream)
        self._kernel()  # first call pays NumPy's lazy imports

    def _kernel(self) -> float:
        impulse = np.fft.ifft(self._grid, axis=-1)
        channel = np.fft.fft(impulse * 0.5, axis=-1)
        weights = np.linalg.solve(self._lhs, self._rhs)
        self._out[self._order] = self._stream
        power = float((np.abs(channel) ** 2).mean()) + float(weights[0, 0, 0].real)
        counts: dict[int, int] = {}
        for i in range(9_000):
            key = i & 255
            counts[key] = counts.get(key, 0) + i
        return power + counts[7]

    def sample(self, seconds: float = SLICE_S) -> float:
        """Host speed over one slice (1.0 = nominal, 0.5 = half as fast)."""
        calls = 0
        begin = time.perf_counter()
        while True:
            self._kernel()
            calls += 1
            elapsed = time.perf_counter() - begin
            if elapsed >= seconds:
                return NOMINAL_CALL_S * calls / elapsed
