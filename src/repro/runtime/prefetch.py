"""Two-stage feature prefetch buffers (paper §IV-B, Fig. 7).

The prefetcher keeps up to ``depth`` prepared mini-batches in flight per
consumer: while the accelerator executes batch ``i``, batch ``i+1`` is in
transfer and batch ``i+2`` is being loaded — the two stages overlap
because they use different memory channels (host DDR vs PCIe).

In the virtual-time engine the overlap itself is resolved by the
:class:`~repro.sim.engine.PipelineSimulator`; :class:`PrefetchBuffer` is
the *data-plane* structure used by the live backends (a bounded,
thread-safe queue with depth = prefetch depth), plus occupancy accounting
that tests assert against.

Timeouts are **monotonic deadlines**: a ``put``/``get`` that passes
``timeout=t`` fails at most ``t`` seconds after the call, no matter how
many spurious or unproductive condition wakeups happen in between (a
churning peer that repeatedly notifies without freeing space must not
extend the deadline). The pipelined backend additionally relies on the
per-buffer occupancy statistics (:attr:`high_water`,
:attr:`mean_occupancy`) that the per-stage overlap report aggregates.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

from ..errors import ProtocolError, StageTimeoutError


class PrefetchBuffer:
    """Bounded FIFO with blocking put/get and occupancy stats.

    Semantics match a ``queue.Queue(maxsize=depth)`` but with explicit
    close() for clean shutdown, deadline-based timeouts, and
    high-water / mean-occupancy tracking.
    """

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ProtocolError("prefetch depth must be >= 1")
        self.depth = depth
        self._items: deque[Any] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        self.high_water = 0
        self.total_puts = 0
        self.total_gets = 0
        self._occupancy_sum = 0
        self._occupancy_samples = 0

    def _wait(self, cond: threading.Condition,
              deadline: float | None, what: str) -> None:
        """One deadline-aware wait on ``cond`` (lock already held).

        ``Condition.wait(timeout)`` restarts its timer on every call, so
        a loop that re-waits after each wakeup can block arbitrarily
        longer than the requested timeout whenever a peer keeps
        notifying without making the predicate true. Re-deriving the
        remaining budget from one monotonic deadline bounds the *total*
        blocked time instead.
        """
        if deadline is None:
            cond.wait()
            return
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not cond.wait(remaining):
            # Either the budget is already spent, or this single wait
            # consumed the rest of it without a notification.
            if deadline - time.monotonic() <= 0:
                # Typed as an infra failure (not a conformance one):
                # CI log triage keys off the exception class.
                raise StageTimeoutError(f"prefetch {what} timed out")

    def put(self, item: Any, timeout: float | None = None) -> None:
        """Insert, blocking while the buffer is full.

        Raises
        ------
        ProtocolError
            If the buffer was closed.
        StageTimeoutError
            If the deadline (``timeout`` seconds from the call) expired.
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._not_full:
            while len(self._items) >= self.depth and not self._closed:
                self._wait(self._not_full, deadline, "put")
            if self._closed:
                raise ProtocolError("put on closed prefetch buffer")
            self._items.append(item)
            self.total_puts += 1
            self._sample_occupancy()
            self._not_empty.notify()

    def get(self, timeout: float | None = None) -> Any:
        """Remove the oldest item, blocking while empty.

        Returns ``None`` when the buffer is closed and drained (the
        consumer's shutdown signal).
        """
        deadline = None if timeout is None \
            else time.monotonic() + timeout
        with self._not_empty:
            while not self._items and not self._closed:
                self._wait(self._not_empty, deadline, "get")
            if not self._items:
                return None
            item = self._items.popleft()
            self.total_gets += 1
            self._sample_occupancy()
            self._not_full.notify()
            return item

    def close(self) -> None:
        """Mark the stream finished; wakes all waiters."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def _sample_occupancy(self) -> None:
        """Record occupancy after a state change (lock held)."""
        occ = len(self._items)
        self.high_water = max(self.high_water, occ)
        self._occupancy_sum += occ
        self._occupancy_samples += 1

    @property
    def occupancy(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def mean_occupancy(self) -> float:
        """Average occupancy sampled at every put/get transition."""
        with self._lock:
            if self._occupancy_samples == 0:
                return 0.0
            return self._occupancy_sum / self._occupancy_samples
