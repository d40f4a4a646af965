"""Session-scoped kernel traffic accounting.

Every kernel dispatch (:mod:`repro.kernels`) records what it moved: rows
gathered, source bytes read from the feature store, bytes written into
trainer-facing buffers, and payload bytes that would cross PCIe. The
counters answer the question the micro-bench cannot: *per training
iteration*, how many bytes did the gather/transfer hot path actually
move?

There is no process-wide total. Every dispatch goes through
:func:`record`, which feeds the :class:`KernelCounters` bags the
calling thread is enlisted into via :func:`scoped_counters`; a
dispatch from a thread with no bag is counted nowhere. That is how two
concurrent sessions in one process (a training backend and a serving
session, or two trainings) each get a ``kernel_stats`` that counts
only *their own* dispatches. In-process backends and serving sessions
wrap their run and lane threads in ``scoped_counters(self.counters)``;
a process-plane worker enlists a fresh bag per run around its loads
and ships its snapshot back.

Thread safety: the lanes of the in-process backends dispatch kernels
concurrently, so :meth:`KernelCounters.add` takes a lock. The costs
are a few dict updates per *batch* (not per element); the lock is
invisible next to the gather itself. Enlistment is keyed by thread id
and stores immutable tuples, so :func:`record`'s read path is a single
dict lookup with no lock.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class KernelCounters:
    """A thread-safe additive counter bag.

    Keys are free-form (the kernel dispatchers use ``gather_calls``,
    ``gather_rows``, ``gather_src_bytes``, ``gather_out_bytes``,
    ``payload_bytes``, ``encode_calls``, ``decode_calls``); absent
    keys read as zero. A float load counts one gather; an accelerator
    load decoded from a wire table counts one gather of its wire bytes
    plus one decode.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def add(self, **deltas: int) -> None:
        """Accumulate the given deltas atomically."""
        with self._lock:
            for key, value in deltas.items():
                self._counts[key] = self._counts.get(key, 0) + int(value)

    def snapshot(self) -> dict[str, int]:
        """A point-in-time copy of every counter."""
        with self._lock:
            return dict(self._counts)

    def delta(self, since: dict[str, int]) -> dict[str, int]:
        """Counters accumulated after ``since`` (a prior snapshot),
        dropping zero entries so reports stay compact."""
        now = self.snapshot()
        out = {}
        for key, value in now.items():
            d = value - since.get(key, 0)
            if d:
                out[key] = d
        return out


def merge_counts(into: dict[str, int],
                 extra: dict[str, int]) -> dict[str, int]:
    """Sum ``extra`` into ``into`` (the parent folding worker
    snapshots); returns ``into`` for chaining."""
    for key, value in extra.items():
        into[key] = into.get(key, 0) + int(value)
    return into


# Session-scoped sinks: thread id -> tuple of enlisted counter bags.
# Values are immutable tuples replaced wholesale under the lock, so the
# hot-path read in :func:`record` needs no synchronization.
_sinks_lock = threading.Lock()
_sinks: dict[int, tuple[KernelCounters, ...]] = {}


def enlist_thread(counters: KernelCounters) -> None:
    """Enlist ``counters`` as a sink for every :func:`record` call made
    from the *current* thread (stackable; prefer
    :func:`scoped_counters`)."""
    tid = threading.get_ident()
    with _sinks_lock:
        _sinks[tid] = _sinks.get(tid, ()) + (counters,)


def delist_thread(counters: KernelCounters) -> None:
    """Remove one enlistment of ``counters`` for the current thread."""
    tid = threading.get_ident()
    with _sinks_lock:
        have = list(_sinks.get(tid, ()))
        if counters in have:
            have.reverse()
            have.remove(counters)
            have.reverse()
        if have:
            _sinks[tid] = tuple(have)
        else:
            _sinks.pop(tid, None)


@contextmanager
def scoped_counters(counters: KernelCounters):
    """Route this thread's kernel traffic into ``counters`` for the
    duration of the block.

    Each run/stage thread of a session enters this around its work
    loop, giving the session an isolated ``kernel_stats`` view even
    when other sessions dispatch concurrently in the same process.
    """
    enlist_thread(counters)
    try:
        yield counters
    finally:
        delist_thread(counters)


def record(**deltas: int) -> None:
    """Accumulate kernel-dispatch deltas into every counter bag the
    calling thread is enlisted into — the single chokepoint the
    dispatchers call."""
    for sink in _sinks.get(threading.get_ident(), ()):
        sink.add(**deltas)
