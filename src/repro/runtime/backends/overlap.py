"""The look-ahead window the process driver deals through.

Every plane opens the same window,
:meth:`~.base.ExecutionBackend.window` — the session's
``prefetch_depth`` under two-stage prefetch, else 1 (lock-step), fixed
for the whole run: the capacity of the in-process producer's buffers
(:class:`~.pipelined.PlanOrderFeed`), and on the process driver the
bound of :class:`LookaheadDealer`, the bounded window over a work
source (pure; hypothesis-tested).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from ...errors import ProtocolError


class LookaheadDealer:
    """A bounded look-ahead window over a plan iterator.

    Pure sequencing logic, extracted from the parent's drive loop so
    the look-ahead invariants are directly property-testable without
    live workers:

    * :meth:`refill` deals planned iterations until the window holds
      ``depth`` in-flight entries (or the plan is dry) and returns the
      newly dealt ones, in plan order;
    * :meth:`retire` pops the oldest in-flight iteration — the one the
      caller synchronizes next.

    Because dealing only ever *advances* the plan iterator, the
    concatenation of dealt shards is the plan's own sequence — look-
    ahead changes *when* shards are dealt, never *which* or in what
    order, so epoch coverage stays a plan property (the hypothesis
    suite pins this).
    """

    def __init__(self, plan_iter: Iterator, depth: int) -> None:
        if depth < 1:
            raise ProtocolError("look-ahead depth must be >= 1")
        self._plan_iter = plan_iter
        self.depth = depth
        self._window: deque = deque()
        self._dry = False
        #: Max in-flight count ever observed (the bounded-queue audit).
        self.high_water = 0

    @property
    def in_flight(self) -> int:
        return len(self._window)

    def refill(self) -> list:
        """Deal up to the window bound; returns the newly dealt
        ``(iteration, planned)`` pairs in plan order."""
        dealt = []
        while not self._dry and len(self._window) < self.depth:
            nxt = next(self._plan_iter, None)
            if nxt is None:
                self._dry = True
                break
            self._window.append(nxt)
            dealt.append(nxt)
        self.high_water = max(self.high_water, len(self._window))
        return dealt

    def retire(self):
        """Pop the oldest in-flight iteration, or ``None`` when both
        the window and the plan are exhausted."""
        if not self._window:
            return None
        return self._window.popleft()
