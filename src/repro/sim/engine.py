"""Minimal discrete-event engine (time in clock cycles)."""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable

__all__ = ["EventEngine"]


class EventEngine:
    """A heap-ordered event queue.

    Events are ``(time, callback)``; ties break in scheduling order so the
    simulation is fully deterministic. A hot caller may push ``(time,
    next(seq), callback)`` onto ``heap`` itself, skipping the past check.
    """

    def __init__(self) -> None:
        self.heap: list[tuple[int, int, Callable[[int], None]]] = []
        self.seq = count()
        self.now: int = 0

    def schedule(self, time: int, callback: Callable[[int], None]) -> None:
        """Schedule ``callback(time)`` at an absolute time (cycles)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        heapq.heappush(self.heap, (time, next(self.seq), callback))

    def schedule_in(self, delay: int, callback: Callable[[int], None]) -> None:
        """Schedule ``callback`` after a relative delay (cycles)."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.schedule(self.now + delay, callback)

    def run_until_idle(self, hard_limit: int | None = None) -> None:
        """Process all events (optionally bounded by a hard time limit)."""
        heap = self.heap
        pop = heapq.heappop
        while heap:
            if hard_limit is not None and heap[0][0] > hard_limit:
                self.now = hard_limit
                return
            time, _, callback = pop(heap)
            self.now = time
            callback(time)
