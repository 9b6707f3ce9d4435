"""Work-stealing queues (Section IV-C).

"Each worker thread has a local task queue, and if no work exists in its
own queue, it tries to steal work from another worker thread. ... Before a
worker thread tries to steal work from another thread, it first checks the
global user queue."

The local queue is owner-LIFO / thief-FIFO (the classic Chase–Lev
discipline): the owner pushes and pops at the bottom for locality, thieves
take from the top so they grab the oldest — typically largest — work.
Python-level locking stands in for the lock-free algorithm; the scheduling
behaviour is identical.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Generic, TypeVar

T = TypeVar("T")

__all__ = ["WorkStealingDeque", "GlobalQueue"]


class WorkStealingDeque(Generic[T]):
    """A lock-protected work-stealing deque."""

    def __init__(self) -> None:
        self._items: deque[T] = deque()  # guarded-by: _lock
        self._lock = threading.Lock()

    def push(self, item: T) -> None:
        """Owner: push a task at the bottom."""
        with self._lock:
            self._items.append(item)

    def push_all(self, items: list[T]) -> None:
        """Owner: push several tasks at once."""
        with self._lock:
            self._items.extend(items)

    def pop(self) -> T | None:
        """Owner: take the most recently pushed task (LIFO), or None."""
        with self._lock:
            if self._items:
                return self._items.pop()
        return None

    def steal(self) -> T | None:
        """Thief: take the oldest task (FIFO), or None."""
        with self._lock:
            if self._items:
                return self._items.popleft()
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class GlobalQueue(Generic[T]):
    """The global user queue subframes are dispatched onto.

    The maintenance thread enqueues every scheduled user of a subframe;
    idle workers dequeue one user each and become that user's "user
    thread".
    """

    def __init__(self) -> None:
        self._items: deque[T] = deque()  # guarded-by: _lock
        self._lock = threading.Lock()

    def put_subframe(self, users: list[T]) -> None:
        """Dispatch a whole subframe's users atomically."""
        with self._lock:
            self._items.extend(users)

    def get(self) -> T | None:
        """Dequeue one user (FIFO), or None when empty."""
        with self._lock:
            if self._items:
                return self._items.popleft()
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)
