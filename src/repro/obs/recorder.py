"""Event sinks: in-memory recording, ring-buffer mode, JSONL export.

An :class:`EventRecorder` is a callable observer — attach it to a
:class:`~repro.sim.machine.MachineSimulator` or
:class:`~repro.sched.threaded.ThreadedRuntime` and every emitted
:class:`~repro.obs.events.Event` is appended. With ``capacity`` set it
becomes a ring buffer that keeps only the newest events (for long runs
where only the tail around a failure matters, the gem5 ``--trace`` idiom).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import Iterator

from .events import Event, EventKind

__all__ = ["EventRecorder", "read_jsonl"]


class EventRecorder:
    """Records emitted events; optionally bounded.

    ``capacity=None`` keeps every event; an integer turns the recorder
    into a ring buffer of that many newest events (``dropped`` counts
    what fell off the front).
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)
        self.dropped = 0

    # ------------------------------------------------------------- observer
    def __call__(self, event: Event) -> None:
        if self.capacity is not None and len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    @property
    def events(self) -> list[Event]:
        return list(self._events)

    def counts(self) -> dict[str, int]:
        """Events per kind (kind value -> count)."""
        return dict(Counter(e.kind.value for e in self._events))

    def filter(self, kind: EventKind) -> list[Event]:
        return [e for e in self._events if e.kind is kind]

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    # --------------------------------------------------------------- export
    def write_jsonl(self, path) -> int:
        """Write one JSON object per line; returns the record count."""
        with open(path, "w", encoding="utf-8") as fh:
            for event in self._events:
                fh.write(json.dumps(event.to_dict(), separators=(",", ":")))
                fh.write("\n")
        return len(self._events)


def read_jsonl(path) -> list[dict]:
    """Load a trace written by :meth:`EventRecorder.write_jsonl`."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
