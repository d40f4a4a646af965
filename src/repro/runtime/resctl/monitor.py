"""Realized per-stage wall-time monitoring (resctl stage 1 of 3).

The timing plane everywhere else in the runtime is *modelled*: the
:class:`~repro.perfmodel.model.PerformanceModel` turns realized batch
statistics into predicted :class:`~repro.perfmodel.model.StageTimes`.
The live planes, however, also *measure*: the in-process driver's feed
threads and consumer (per item, folded once per iteration) and the
process-plane workers (per batch on each reply, run totals in the
worker snapshot) know exactly how long each sample/gather/transfer/
train pass took on this machine.

:class:`StageMonitor` is where those measurements land: one bounded
ring buffer per stage, an incrementally-maintained EWMA, and
percentile summaries over the retained window. It is the feed for the
:class:`~repro.runtime.resctl.estimator.OnlineEstimator` (which
calibrates the analytic model against the realized signal) and a
stand-alone observability surface (``summary()`` renders in reports
and benches).

Stage keys follow :meth:`StageTimes.as_dict` — ``sample_cpu``,
``sample_accel``, ``load``, ``transfer``, ``train_cpu``,
``train_accel``, ``sync`` — so a realized observation always has an
unambiguous analytic counterpart. :func:`fold_worker_realized` is the
single mapping from per-trainer raw stage durations (what a stage
thread or worker actually measures: ``sample``/``load``/``transfer``/
``train`` plus the trainer's kind) onto those keys, shared by the
in-process driver and the process driver so the
aggregation semantics (CPU contributions summed, accelerator
contributions maxed — mirroring the model's own Eq. 7–9 reductions)
can never drift between planes.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ...errors import ProtocolError

#: Canonical realized-stage keys, aligned with ``StageTimes.as_dict``.
REALIZED_STAGES = ("sample_cpu", "sample_accel", "load", "transfer",
                   "train_cpu", "train_accel", "sync")


def fold_worker_realized(per_trainer: Iterable[tuple[str, Mapping]],
                         sync_s: float | None = None
                         ) -> dict[str, float]:
    """Fold per-trainer raw stage durations into canonical stage keys.

    ``per_trainer`` yields ``(kind, stage_s)`` pairs where ``kind`` is
    the trainer's ``"cpu"``/``"accel"`` and ``stage_s`` maps raw stage
    names (``sample``/``load``/``transfer``/``train``) to measured
    seconds. Reductions mirror the analytic model's: CPU-side work is
    summed (the model's CPU terms aggregate over the whole CPU side),
    accelerator-side work is maxed (Eq. 8/9 take the slowest
    accelerator), ``load`` is summed across all trainers (host-DDR
    bandwidth is shared), and ``sync`` is the caller-measured
    all-reduce duration. Keys never observed stay absent — the
    estimator treats absent stages as "still analytic".
    """
    realized: dict[str, float] = {}

    def _add(key: str, value: float) -> None:
        realized[key] = realized.get(key, 0.0) + value

    def _max(key: str, value: float) -> None:
        realized[key] = max(realized.get(key, 0.0), value)

    for kind, stage_s in per_trainer:
        if not stage_s:
            continue
        for stage, value in stage_s.items():
            v = float(value)
            if not math.isfinite(v) or v < 0.0:
                continue
            if stage == "sample":
                (_add if kind == "cpu" else _max)(
                    "sample_cpu" if kind == "cpu" else "sample_accel",
                    v)
            elif stage == "load":
                _add("load", v)
            elif stage == "transfer":
                if kind == "accel":
                    _max("transfer", v)
            elif stage == "train":
                (_add if kind == "cpu" else _max)(
                    "train_cpu" if kind == "cpu" else "train_accel", v)
    if sync_s is not None and math.isfinite(sync_s) and sync_s >= 0.0:
        realized["sync"] = float(sync_s)
    return realized


def map_worker_totals(kind: str, totals: Mapping[str, tuple]
                      ) -> dict[str, tuple[int, float]]:
    """Map one worker's raw stage accounting onto canonical keys.

    The worker snapshot's ``stage_totals`` is
    ``{raw_stage: (count, total_s)}``
    with raw stage names (``sample``/``load``/``transfer``/``train``)
    because the worker does not know which side of the hybrid split it
    sits on — the parent does, via the trainer's ``kind``. Attribution
    follows :func:`fold_worker_realized`: sampling and training split
    into the ``_cpu``/``_accel`` columns by kind, ``load`` is
    kind-agnostic, and ``transfer`` only exists on the accelerator
    side. Unknown raw stages are dropped rather than invented.
    """
    key_by_raw = {
        "sample": "sample_cpu" if kind == "cpu" else "sample_accel",
        "load": "load",
        "transfer": "transfer" if kind == "accel" else None,
        "train": "train_cpu" if kind == "cpu" else "train_accel",
    }
    mapped: dict[str, tuple[int, float]] = {}
    for raw, entry in totals.items():
        key = key_by_raw.get(raw)
        if key is None:
            continue
        mapped[key] = (int(entry[0]), float(entry[1]))
    return mapped


@dataclass(frozen=True)
class StageSummary:
    """One stage's monitored wall-time digest."""

    stage: str
    count: int           # observations ever (ring may have dropped old)
    total_s: float       # cumulative seconds across all observations
    ewma_s: float        # exponentially-weighted moving average
    p50_s: float         # median over the retained window
    p95_s: float         # tail over the retained window

    def describe(self) -> str:
        return (f"{self.stage}: n={self.count} ewma={self.ewma_s:.2e}s "
                f"p50={self.p50_s:.2e}s p95={self.p95_s:.2e}s")


class StageMonitor:
    """Bounded ring buffers of realized per-stage wall times.

    Thread-safe: any thread of a plane may observe, concurrently with
    a reader rendering ``summary()``.

    Parameters
    ----------
    window:
        Samples retained per stage for the percentile summaries (the
        EWMA and the count/total accumulators are unbounded-history).
    alpha:
        EWMA smoothing factor in ``(0, 1]`` — the weight of the newest
        sample.
    """

    def __init__(self, window: int = 128, alpha: float = 0.25) -> None:
        if window < 1:
            raise ProtocolError("monitor window must be >= 1")
        if not 0.0 < alpha <= 1.0:
            raise ProtocolError("monitor alpha must be in (0, 1]")
        self.window = window
        self.alpha = alpha
        self._lock = threading.Lock()
        self._rings: dict[str, deque] = {}
        self._ewma: dict[str, float] = {}
        self._count: dict[str, int] = {}
        self._total: dict[str, float] = {}

    # ------------------------------------------------------------------
    def observe(self, stage: str, seconds: float) -> None:
        """Record one realized wall-time sample for ``stage``."""
        v = float(seconds)
        if not math.isfinite(v) or v < 0.0:
            raise ProtocolError(
                f"monitor sample for {stage!r} must be finite and "
                f">= 0, got {seconds!r}")
        with self._lock:
            ring = self._rings.setdefault(
                stage, deque(maxlen=self.window))
            ring.append(v)
            prev = self._ewma.get(stage)
            self._ewma[stage] = v if prev is None else \
                self.alpha * v + (1.0 - self.alpha) * prev
            self._count[stage] = self._count.get(stage, 0) + 1
            self._total[stage] = self._total.get(stage, 0.0) + v

    def observe_times(self, realized: Mapping[str, float]) -> None:
        """Record one iteration's realized stage map (canonical keys)."""
        for stage, seconds in realized.items():
            self.observe(stage, seconds)

    def merge_totals(self, totals: Mapping[str, tuple]) -> None:
        """Fold a worker's cumulative ``{stage: (count, total_s)}``
        accounting (the worker snapshot's ``stage_totals``) into the
        count/total accumulators. Totals carry no per-sample resolution, so the
        ring/EWMA stay untouched — but the per-stage mean the summary
        derives from ``total_s / count`` reflects the worker-side work
        even on planes that never ship per-iteration timings."""
        for stage, (count, total_s) in totals.items():
            c = int(count)
            t = float(total_s)
            if c < 0 or not math.isfinite(t) or t < 0.0:
                raise ProtocolError(
                    f"invalid stage-totals entry for {stage!r}: "
                    f"({count!r}, {total_s!r})")
            if c == 0:
                continue
            with self._lock:
                self._count[stage] = self._count.get(stage, 0) + c
                self._total[stage] = self._total.get(stage, 0.0) + t

    # ------------------------------------------------------------------
    def stages(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(set(self._count) | set(self._rings)))

    def count(self, stage: str) -> int:
        with self._lock:
            return self._count.get(stage, 0)

    def ewma(self, stage: str) -> float | None:
        with self._lock:
            return self._ewma.get(stage)

    def percentile(self, stage: str, q: float) -> float | None:
        """The ``q``-th percentile over the retained window."""
        if not 0.0 <= q <= 100.0:
            raise ProtocolError("percentile must be in [0, 100]")
        with self._lock:
            ring = self._rings.get(stage)
            if not ring:
                return None
            return float(np.percentile(np.asarray(ring), q))

    def summary(self) -> dict[str, StageSummary]:
        """Per-stage digests, canonical-key order first."""
        out: dict[str, StageSummary] = {}
        with self._lock:
            stages = sorted(
                set(self._count) | set(self._rings),
                key=lambda s: (REALIZED_STAGES.index(s)
                               if s in REALIZED_STAGES else
                               len(REALIZED_STAGES), s))
            for stage in stages:
                ring = self._rings.get(stage)
                arr = np.asarray(ring) if ring else None
                count = self._count.get(stage, 0)
                total = self._total.get(stage, 0.0)
                ewma = self._ewma.get(stage)
                if ewma is None:
                    # Totals-only stage (merge_totals): the mean is the best
                    # point estimate the payload carries.
                    ewma = total / count if count else 0.0
                out[stage] = StageSummary(
                    stage=stage, count=count, total_s=total,
                    ewma_s=float(ewma),
                    p50_s=float(np.percentile(arr, 50))
                    if arr is not None else float(ewma),
                    p95_s=float(np.percentile(arr, 95))
                    if arr is not None else float(ewma))
        return out

    def describe(self) -> str:
        return " | ".join(s.describe() for s in self.summary().values()) \
            or "no observations"
