"""Grow-only buffer pool for the gather/transfer hot path.

The reference gather allocates a fresh ``(rows, features)`` array every
mini-batch — at products scale that is tens of megabytes per iteration
of allocator traffic before a single useful byte moves. The pool keeps
one buffer per ``(columns, dtype)`` shape class and hands out row-count
views into it, so the steady state (batch sizes stabilize after the
first few iterations) allocates nothing: the fast kernels' ``out=``
paths write straight into pooled memory.

Aliasing contract — the reason pooling is **opt-in** per call site: a
view returned by :meth:`BufferPool.take` is valid only until the next
``take`` of the same ``(columns, dtype)`` class. That is exactly the
lifetime of a mini-batch's ``x0`` at the sequential call sites (the
virtual backend's feed, and a process-plane worker's load that trains
at once, train each batch to completion before gathering the next;
``Model.backward`` drops its activation caches, so nothing outlives
the call). The in-process driver's feed threads (both ``threaded`` and
``pipelined``) keep several batches in flight inside ``PrefetchBuffer``
queues, and a worker's load that queues behind an unapplied iteration
would be overwritten by the next gather before it trains, so they must
**not** pass a pool — and do not. ``docs/kernels.md`` spells the rule
out for kernel authors.

Not thread-safe by design: a pool belongs to one call site on one
thread (per-worker, per-backend-run). Cross-thread sharing would
reintroduce the aliasing hazard the opt-in rule exists to prevent.
"""

from __future__ import annotations

import numpy as np

from .stats import COUNTERS


class BufferPool:
    """Reusable 2-D scratch buffers keyed by ``(columns, dtype)``.

    Grow-only: a request for more rows than the pooled buffer holds
    reallocates it (counted as a miss); every smaller or equal request
    is served as a zero-copy view (a hit). ``take`` never zeroes the
    buffer — callers own every row of the returned view.
    """

    def __init__(self) -> None:
        self._bufs: dict[tuple[int, str], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def take(self, rows: int, cols: int, dtype) -> np.ndarray:
        """A C-contiguous ``(rows, cols)`` view of pooled memory."""
        key = (int(cols), np.dtype(dtype).str)
        buf = self._bufs.get(key)
        if buf is None or buf.shape[0] < rows:
            buf = np.empty((int(rows), int(cols)), dtype=dtype)
            self._bufs[key] = buf
            self.misses += 1
            COUNTERS.add(pool_misses=1, pool_alloc_bytes=buf.nbytes)
        else:
            self.hits += 1
            COUNTERS.add(pool_hits=1)
        return buf[:rows]

    @property
    def nbytes(self) -> int:
        """Total bytes currently held."""
        return sum(b.nbytes for b in self._bufs.values())

    def clear(self) -> None:
        """Drop every pooled buffer (releases the memory)."""
        self._bufs.clear()
