"""Measurement plumbing shared by the workloads: spans, order
statistics, resource readings, leak checks and the failure ledger.

Only :func:`leaks` touches the library under test (for the name its
shared-memory segments carry).
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: The environment a workload process must run under (satellite "pin
#: what was measured to matter"): trainer-level parallelism is the
#: system's own; BLAS threads underneath it oversubscribe a 2-core box.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    """One timed call into a layer. ``parent`` indexes
    :attr:`Tracer.spans` (-1 for a root); ``op`` is the identifier the
    spans of one operation share (iteration number, step number)."""

    name: str
    start: float
    end: float
    parent: int
    op: int


class Tracer:
    """In-memory span recorder (written out, if at all, when the run
    ends). Disabled, :meth:`span` costs one attribute test — the
    spans-off replay pass measures exactly that difference."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int = -1):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = Span(name, time.perf_counter(), 0.0, parent, op)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float,
            op: int = -1) -> None:
        """Record a call the caller timed itself (hot loops where a
        context manager per call would cost more than the call)."""
        if self.enabled:
            parent = self._open[-1] if self._open else -1
            self.spans.append(Span(name, start, end, parent, op))

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            totals[s.name] = totals.get(s.name, 0.0) + own
        return totals

    def to_rows(self) -> list[dict]:
        return [{"id": i, "name": s.name, "start": s.start,
                 "end": s.end, "parent": s.parent, "op": s.op}
                for i, s in enumerate(self.spans)]


# ---------------------------------------------------------------------------
# Order statistics (medians everywhere: one stalled op must not move a
# reported number)
# ---------------------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (no interpolation past the sample)."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return float(values[rank - 1])


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def coeff_var(values) -> float:
    values = list(values)
    if len(values) < 2:
        return 0.0
    m = mean(values)
    return float(statistics.pstdev(values) / m) if m else 0.0


def spread(values) -> float:
    """Inter-quartile distance as a share of the median — the statistic
    the driver accepts or rejects the benchmark on."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / mid) if mid else 0.0


# ---------------------------------------------------------------------------
# Host-speed probe
# ---------------------------------------------------------------------------

class HostProbe:
    """A fixed single-thread calibration kernel, run next to every
    timed op, so a wall time can be divided by how slow the host was
    running just then.

    The 2-vCPU box this was built on has slow phases lasting tens of
    seconds to minutes that shift every op by 10–30 % (README, "How a
    run is kept steady"); ten 20 s runs of one workload then spread by
    17–30 % of their median, more than any bound the contract allows.
    The kernel — a cache-resident matmul, a row gather from a 51 MB table and
    an interpreter loop, the three things an op is made of — slows
    down with them. Its inputs are constants (not ``--seed``), it
    allocates nothing, and it runs twice with only the second timed,
    so what it reads is the host's speed and not what the op before it
    left in the caches.
    """

    #: Seconds the kernel takes on that box when the host is quiet
    #: (lower quartile of 3 000 stand-alone runs). Only fixes the
    #: scale: 1.0 = "as fast as the reference box at its best".
    REFERENCE_S = 0.0053

    def __init__(self) -> None:
        import numpy as np
        rng = np.random.default_rng(12345)
        self._np = np
        self._a = rng.random((160, 160))
        self._c = np.empty_like(self._a)
        self._table = rng.random((400_000, 32), dtype=np.float32)
        self._rows = rng.integers(0, 400_000, 30_000)
        self._out = np.empty((30_000, 32), dtype=np.float32)
        self.mark()

    def _kernel(self) -> None:
        np = self._np
        for _ in range(16):
            np.matmul(self._a, self._a, out=self._c)
        np.take(self._table, self._rows, axis=0, out=self._out)
        np.take(self._table, self._rows, axis=0, out=self._out)
        total = 0
        for i in range(40_000):
            total += i

    def slowdown(self) -> float:
        """How slow the host is running right now (1.0 = reference)."""
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        return (time.perf_counter() - start) / self.REFERENCE_S

    def lap(self) -> float:
        """Read the probe; return the mean of this reading and the
        previous one — the slowdown to divide by for whatever ran in
        between. (:meth:`mark` first if anything untimed ran since.)"""
        before, self._last = self._last, self.slowdown()
        return (before + self._last) / 2

    def mark(self) -> None:
        """Take the reading the next :meth:`lap` pairs with."""
        self._last = self.slowdown()


class Unprobed:
    """Stands in for :class:`HostProbe` where walls are reported raw
    (the traced pass)."""

    def lap(self) -> float:
        return 1.0

    def mark(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Failure ledger
# ---------------------------------------------------------------------------

@dataclass
class Ledger:
    """Ops attempted / failed plus every run-level check that did not
    hold. A run is ``correct`` only when nothing is recorded."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, problem: str | None) -> bool:
        """Count one op; ``problem`` (a reason) marks it failed."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return problem is None

    def check(self, ok: bool, problem: str) -> None:
        """A run-level invariant (not an op)."""
        if not ok:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


# ---------------------------------------------------------------------------
# Process-level readings
# ---------------------------------------------------------------------------

def quiesce() -> None:
    """Before every timed phase: no pending garbage to collect inside
    it."""
    gc.collect()


def peak_rss_mb() -> float:
    """This process's high-water RSS plus the largest reaped child's
    (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def leaks() -> list[str]:
    """What a finished workload must not leave behind."""
    from repro.runtime import SharedFeatureStore
    found = []
    shm = Path("/dev/shm")
    if shm.is_dir():
        found += [f"/dev/shm/{p.name}" for p in shm.iterdir()
                  if p.name.startswith(SharedFeatureStore.NAME_PREFIX)]
    found += [f"child process {p.name} (pid {p.pid})"
              for p in multiprocessing.active_children()]
    return found


def stop_resource_tracker() -> None:
    """End multiprocessing's resource tracker and wait for it. The
    first shared-memory segment starts one; left alone it ends only
    after this process has, as an orphan nobody waits for. (It starts
    again by itself if another segment is made.)"""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def environment(seed: int) -> dict:
    """What a baseline needs to be auditable."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:          # older NumPy: no structured config
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in PINNED_ENV},
        "generator_threads": 1,
        "seed": seed,
    }
