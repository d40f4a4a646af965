"""Micro-batching: coalesce admitted requests under a latency budget.

Serving a GNN one request at a time wastes the batch-oriented
sampler/gather/kernel stack; batching too long blows the latency
budget. The :class:`MicroBatcher` holds the middle: admitted requests
join an *open* batch, which flushes when

* its target count reaches ``max_batch_targets`` (size flush),
* the **oldest** request in it has waited ``coalesce_window_s``
  (deadline flush) — the window is validated against the session's
  latency budget at construction, so coalescing can never consume the
  whole budget, or
* its consumer asks (:meth:`~MicroBatcher.flush`) — the serving
  session does so whenever it would otherwise sit idle, so the window
  is an upper bound that only bites on a batch waiting behind a
  backlog of sealed ones.

Flushed batches queue as :class:`MicroBatch` work items, handed out
oldest first by :meth:`~MicroBatcher.take`.

The clock is injectable (``clock=lambda: t``), so the flush rules are
property-testable with a virtual clock: every accepted request lands
in exactly one flushed batch, and no batch flushes later than its
deadline while :meth:`poll` is being driven.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ConfigError
from .requests import InferenceRequest


@dataclass(frozen=True)
class MicroBatch:
    """One flushed micro-batch: the coalesced work item.

    ``targets`` is the concatenation of the member requests' target
    ids in admission order — the stage pipeline samples the whole
    micro-batch as one computational graph, and predictions are split
    back per-request by each member's target count.
    """

    seq: int
    requests: tuple[InferenceRequest, ...]
    #: Session-clock time the batch was opened (oldest arrival).
    opened_s: float
    #: The deadline that forced (or would have forced) the flush:
    #: ``opened_s + coalesce_window_s``.
    deadline_s: float
    #: Session-clock time the batch actually flushed.
    flushed_s: float

    @property
    def targets(self) -> np.ndarray:
        if not self.requests:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([r.targets for r in self.requests])

    @property
    def num_targets(self) -> int:
        return sum(r.num_targets for r in self.requests)

    def __len__(self) -> int:
        return len(self.requests)


class MicroBatcher:
    """Coalesces admitted requests into bounded, deadline-flushed
    micro-batches.

    Parameters
    ----------
    coalesce_window_s:
        Longest a request may sit in the open batch before a
        :meth:`poll` flushes it.
    max_batch_targets:
        Flush the open batch as soon as its total target count reaches
        this bound (a single oversized request still flushes — as its
        own batch — rather than being rejected here; sizing requests
        is the front door's job).
    clock:
        Monotonic time source; injectable for property tests.
    """

    def __init__(self, coalesce_window_s: float,
                 max_batch_targets: int, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if coalesce_window_s <= 0:
            raise ConfigError("coalesce_window_s must be positive")
        if max_batch_targets < 1:
            raise ConfigError("max_batch_targets must be >= 1")
        self.coalesce_window_s = float(coalesce_window_s)
        self.max_batch_targets = int(max_batch_targets)
        self.clock = clock
        self._open: list[InferenceRequest] = []
        #: Running target count of the open batch.
        self._open_targets = 0
        self._opened_s: float | None = None
        self._ready: deque[MicroBatch] = deque()
        self._seq = 0
        #: The session's one pending ledger: requests offered and not
        #: yet taken (open + ready). ``offer`` adds, ``take`` subtracts.
        self.pending_requests = 0

    # ------------------------------------------------------------------
    def offer(self, request: InferenceRequest) -> None:
        """Add an *admitted* request to the open batch (admission —
        credits, queue bounds — happened upstream; the batcher never
        rejects)."""
        now = self.clock()
        if not self._open:
            self._opened_s = now
        self._open.append(request)
        self._open_targets += request.num_targets
        self.pending_requests += 1
        if self._open_targets >= self.max_batch_targets:
            self._flush(now)

    def poll(self) -> None:
        """Apply the deadline rule: flush the open batch if its oldest
        request has waited out the coalesce window. Callers (the
        serving step loop) drive this between submissions."""
        if self._open and self.clock() >= self.deadline_s():
            self._flush(self.clock())

    def flush(self) -> None:
        """Seal the open batch now (an idle consumer's flush)."""
        if self._open:
            self._flush(self.clock())

    def deadline_s(self) -> float:
        """The open batch's flush deadline (``inf`` when empty)."""
        if self._opened_s is None:
            return float("inf")
        return self._opened_s + self.coalesce_window_s

    # ------------------------------------------------------------------
    def take(self, limit: int | None = None) -> list[MicroBatch]:
        """Pop up to ``limit`` ready (flushed) batches, oldest first."""
        out: list[MicroBatch] = []
        while self._ready and (limit is None or len(out) < limit):
            batch = self._ready.popleft()
            self.pending_requests -= len(batch)
            out.append(batch)
        return out

    # ------------------------------------------------------------------
    @property
    def ready_batches(self) -> int:
        return len(self._ready)

    def _flush(self, now: float) -> None:
        batch = MicroBatch(seq=self._seq,
                           requests=tuple(self._open),
                           opened_s=self._opened_s
                           if self._opened_s is not None else now,
                           deadline_s=self.deadline_s(),
                           flushed_s=now)
        self._seq += 1
        self._open = []
        self._open_targets = 0
        self._opened_s = None
        self._ready.append(batch)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<MicroBatcher open={len(self._open)} "
                f"ready={len(self._ready)} window="
                f"{self.coalesce_window_s}s>")
