"""The per-item stage pipeline, extracted from the training session.

Every consumer of the runtime — the six training backends *and* the
online serving plane (:mod:`repro.serving`) — pushes work items through
the same Fig.-5 producer chain: **sample** a computational graph for
some target vertices, **gather** their input features from host DDR,
apply the **transfer** (PCIe quantization) policy for the executing
device. Historically that chain lived as methods on
:class:`~repro.runtime.core.TrainingSession`; this module is the
extraction that lets a non-training session reuse it:

* :class:`StagePipeline` — the sampler + feature-store + transfer
  policy bundle with one method per stage (``sample`` / ``gather`` /
  ``transfer``), the fused ``load`` chokepoint, and a timed
  :meth:`~StagePipeline.prepare` that runs the whole chain for one work
  item and reports per-stage wall times (what the serving plane bills
  against its latency budget);
* :class:`WorkSource` — the protocol behind which the training
  :class:`~repro.runtime.core.BatchPlan` (epoch permutation + quota
  cursor) and the serving micro-batch queue look identical to an
  overlapped backend's dispatcher: a stream of
  ``(index, work item)`` pairs.

:class:`~repro.runtime.core.TrainingSession` composes a
:class:`StagePipeline` and keeps its historical stage hooks
(``sample_stage`` …) as thin delegations, so the six backends execute
bit-identical paths; :class:`~repro.serving.ServingSession` composes
the same class over the same sampler/kernel/feature-store stack.

The three module-level stage functions (pure; also called directly by
the process-plane shm workers against their own feature mappings) moved
here with the extraction — :mod:`repro.runtime.core` re-exports them
unchanged.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from .. import kernels
from ..sampling.base import MiniBatch, Sampler
from .quantize import quantize_dequantize


def gather_feature_rows(features: np.ndarray, mb: MiniBatch, *,
                        out: np.ndarray | None = None,
                        pool: kernels.BufferPool | None = None
                        ) -> np.ndarray:
    """The feature-gather (load) stage: one host-memory row gather.

    Dispatches through :func:`repro.kernels.gather_rows`, which returns
    the store's rows in the store's dtype, the same bits as the
    reference oracle. ``out``/``pool`` make
    the gather allocation-free — **opt-in**: a pooled result is only valid
    until the next gather from the same pool, so only provably
    sequential call sites (the virtual backend's epoch loop, the
    process-plane workers) pass one; the overlapped planes keep several
    batches in flight and must not (see ``docs/kernels.md``). Without
    them the call is pure — safe to run concurrently from pipeline
    stage threads.
    """
    return kernels.gather_rows(features, mb.input_nodes, out=out,
                               pool=pool)


def apply_transfer_policy(x0: np.ndarray, trainer_kind: str,
                          transfer_precision: str) -> np.ndarray:
    """The transfer stage: the PCIe link's quantization policy.

    Accelerator-bound batches pay the transfer-quantization round trip
    (paper §VIII extension); the CPU trainer reads host memory at full
    precision, so the stage is the identity for it.
    """
    if trainer_kind == "accel" and transfer_precision != "fp32":
        return quantize_dequantize(x0, transfer_precision)
    return x0


def gather_batch_features(features: np.ndarray, mb: MiniBatch,
                          trainer_kind: str,
                          transfer_precision: str, *,
                          pool: kernels.BufferPool | None = None
                          ) -> np.ndarray:
    """Gather one mini-batch's input features, ready for a trainer.

    The fused load + transfer path: pure function of
    ``(features, batch, kind, precision)`` so every execution
    substrate — the in-process backends via
    :meth:`TrainingSession.load_features`, process-pool workers against
    their shared-memory mapping, the pipelined backend's separate
    gather/transfer stage threads — runs the identical bits.
    Accelerator-bound quantized batches take the **fused**
    gather+quantize kernel (gather into one destination, quantize it
    in place, no intermediate between the stages); everything else is
    a plain gather. ``pool`` is the same opt-in as
    :func:`gather_feature_rows`.
    """
    if trainer_kind == "accel" and transfer_precision != "fp32":
        return kernels.gather_quantize(features, mb.input_nodes,
                                       transfer_precision, pool=pool)
    return kernels.gather_rows(features, mb.input_nodes, pool=pool)


# ---------------------------------------------------------------------------
# Work sources
# ---------------------------------------------------------------------------

@runtime_checkable
class WorkSource(Protocol):
    """A stream of work items an overlapped dispatcher can drain.

    Training's :class:`~repro.runtime.core.BatchPlan` yields
    ``(global_iteration, PlannedIteration)`` pairs off per-epoch
    permutations; the serving plane's micro-batch queue yields
    ``(sequence_number, MicroBatch)`` pairs off the admission queue.
    Either way a backend's dispatcher sees a numbered stream it feeds
    into the stage pipeline — which is what lets one overlapped
    executor drive both planes.
    """

    def iterate(self, iterations: int
                ) -> Iterator[tuple[int, object]]:
        """Yield up to ``iterations`` numbered work items."""
        ...


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageTimings:
    """Realized wall time of one work item's producer chain."""

    sample_s: float
    gather_s: float
    transfer_s: float

    @property
    def total_s(self) -> float:
        return self.sample_s + self.gather_s + self.transfer_s


@dataclass(frozen=True)
class PreparedBatch:
    """One work item after the full producer chain: the sampled
    computational graph, its device-ready input features, its labels
    (``None`` for label-free serving items), and the per-stage wall
    times the chain realized."""

    mb: MiniBatch
    x0: np.ndarray
    labels: np.ndarray | None
    timings: StageTimings


class StagePipeline:
    """The sample → gather → transfer chain over one feature store.

    Parameters
    ----------
    sampler:
        The mini-batch sampler (one shared RNG stream and position map;
        draws are serialized through :attr:`sampler_lock`).
    features / labels:
        The feature matrix and (optionally) label vector the gather and
        label stages read. Process-plane workers construct a pipeline
        over their shared-memory views; ``labels=None`` supports
        label-free (inference) stores.
    transfer_precision:
        The PCIe quantization policy (``"fp32"``/``"fp16"``/``"int8"``).
    """

    def __init__(self, sampler: Sampler, features: np.ndarray,
                 labels: np.ndarray | None,
                 transfer_precision: str) -> None:
        self.sampler = sampler
        self.features = features
        self.labels = labels
        self.transfer_precision = transfer_precision
        #: Serializes sampler access for callers whose stage threads
        #: sample concurrently. A sampler holds two pieces of state that
        #: are not thread-safe: its RNG stream, and the position map it
        #: relabels every batch through (``repro.sampling.base``), which
        #: all in-process stage threads of one session share and which
        #: two overlapping calls would corrupt. Single-threaded callers
        #: never contend.
        self.sampler_lock = threading.Lock()

    # ------------------------------------------------------------------
    # One method per Fig.-5 producer stage
    # ------------------------------------------------------------------
    def sample(self, targets: np.ndarray) -> MiniBatch:
        """Sample one mini-batch (thread-safe).

        The sampler's RNG stream and position map are shared; the lock
        makes each draw atomic so concurrent stage threads interleave
        whole batches, never corrupt either.
        """
        with self.sampler_lock:
            return self.sampler.sample(targets)

    def gather(self, mb: MiniBatch) -> np.ndarray:
        """Feature-gather (load) stage: host-DDR row gather, store
        dtype."""
        return gather_feature_rows(self.features, mb)

    def transfer(self, x0: np.ndarray, trainer_kind: str) -> np.ndarray:
        """Transfer stage: the PCIe quantization policy for this link."""
        return apply_transfer_policy(x0, trainer_kind,
                                     self.transfer_precision)

    def load(self, mb: MiniBatch, trainer_kind: str, *,
             pool: kernels.BufferPool | None = None) -> np.ndarray:
        """The fused load + transfer chokepoint (sequential planes).

        ``pool`` is the sequential-call-site opt-in documented on
        :func:`gather_feature_rows`.
        """
        return gather_batch_features(self.features, mb, trainer_kind,
                                     self.transfer_precision, pool=pool)

    def labels_for(self, mb: MiniBatch) -> np.ndarray | None:
        """This batch's target labels (``None`` on a label-free
        store)."""
        if self.labels is None:
            return None
        return self.labels[mb.targets]

    # ------------------------------------------------------------------
    def prepare(self, targets: np.ndarray, trainer_kind: str, *,
                with_labels: bool = True,
                pool: kernels.BufferPool | None = None) -> PreparedBatch:
        """Run the whole producer chain for one work item, timed.

        The serving plane's per-micro-batch path: sample the
        computational graph, fused-gather the device-ready features
        (splitting the realized wall time between the gather and
        transfer stages is the fused kernel's business, so the fused
        cost is billed to ``gather_s`` and ``transfer_s`` reads zero
        when the policy is fp32), and fetch labels when the store has
        them. The returned :class:`StageTimings` feed the caller's
        :class:`~repro.runtime.resctl.StageMonitor`.
        """
        t0 = time.perf_counter()
        mb = self.sample(targets)
        t1 = time.perf_counter()
        if trainer_kind == "accel" and self.transfer_precision != "fp32":
            x0 = gather_batch_features(self.features, mb, trainer_kind,
                                       self.transfer_precision,
                                       pool=pool)
            t2 = time.perf_counter()
            gather_s, transfer_s = t2 - t1, 0.0
        else:
            x0 = gather_feature_rows(self.features, mb, pool=pool)
            t2 = time.perf_counter()
            x0 = self.transfer(x0, trainer_kind)
            gather_s, transfer_s = t2 - t1, time.perf_counter() - t2
        labels = self.labels_for(mb) if with_labels else None
        return PreparedBatch(
            mb=mb, x0=x0, labels=labels,
            timings=StageTimings(sample_s=t1 - t0, gather_s=gather_s,
                                 transfer_s=transfer_s))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<StagePipeline {type(self.sampler).__name__} over "
                f"{self.features.shape} features, "
                f"{self.transfer_precision} transfer>")
