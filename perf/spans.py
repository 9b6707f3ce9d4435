"""In-memory spans recorded by the benchmark around calls into each layer.

A span is (name, start, end, parent, subframe id), stamped with the
program's own clock (``time.monotonic_ns``) so spans built from the
program's trace events line up with the benchmark's. The log keeps them in a
list and writes them once, at exit, as a Chrome-trace JSON file
(``chrome://tracing`` / Perfetto "X" events). A layer's self time is its
span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

__all__ = ["SpanLog", "write_json_atomic"]


def write_json_atomic(path: str, payload) -> None:
    """Write JSON so a reader never sees a half-written file."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class SpanLog:
    """Span list with a per-thread-free nesting stack (single caller)."""

    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or -1, subframe id or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, subframe: int = -1):
        """Record one nested span around the body."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic_ns(), 0, parent, subframe])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.monotonic_ns()

    def add(
        self, name: str, start_ns: int, end_ns: int, parent: int = -1,
        subframe: int = -1,
    ) -> int:
        """Record a span from timestamps taken elsewhere (hooks, traces)."""
        self.spans.append([name, int(start_ns), int(end_ns), parent, subframe])
        return len(self.spans) - 1

    def stage_timer(self, kernel: str, batch: int):
        """``stage_timer(kernel, batch)`` hook of the vectorized backend."""
        return self.span(kernel)

    def totals_ns(self, first: int = 0) -> dict[str, list[int]]:
        """Per span name: [count, total duration, total self time].

        ``first`` restricts the totals to spans recorded from that index on.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans[first:]:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = {}
        for (name, start, end, _, _), covered in zip(
            self.spans[first:], child_ns[first:]
        ):
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return out

    def write_chrome_trace(self, path: str) -> None:
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": start / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 0,
                "tid": 0,
                "args": {"id": index, "parent": parent, "subframe": subframe},
            }
            for index, (name, start, end, parent, subframe) in enumerate(
                self.spans
            )
        ]
        write_json_atomic(path, {"traceEvents": events, "displayTimeUnit": "ms"})
