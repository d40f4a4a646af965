"""The per-item stage pipeline, extracted from the training session.

Every consumer of the runtime — the seven training backends *and* the
online serving plane (:mod:`repro.serving`) — pushes work items through
the same Fig.-5 producer chain: **sample** a computational graph for
some target vertices, **gather** their input features from host DDR,
apply the **transfer** (PCIe quantization) policy for the executing
device. Historically that chain lived as methods on
:class:`~repro.runtime.core.TrainingSession`; this module is the
extraction that lets a non-training session reuse it:

* :class:`StagePipeline` — the sampler + feature-store + transfer
  policy bundle with one method per stage (``sample`` / ``gather`` /
  ``transfer``), ``load`` (gather then transfer — the sequential
  planes' one call), and a timed :meth:`~StagePipeline.prepare` that
  runs the whole chain for one work item and reports per-stage wall
  times (what the serving plane bills against its latency budget);
* :class:`WorkSource` — the protocol behind which the training
  :class:`~repro.runtime.core.BatchPlan` (epoch permutation + quota
  cursor) and the sharded plane's per-owner plan look identical to a
  backend's dispatcher: a stream of ``(index, work item)`` pairs.

:class:`~repro.runtime.core.TrainingSession` composes a
:class:`StagePipeline` and keeps its historical stage hooks
(``sample_stage`` …) as thin delegations, so every backend executes
bit-identical paths; :class:`~repro.serving.ServingSession` composes
the same class over the same sampler/kernel/feature-store stack, and
each process-plane worker replica *is* one over its shared-memory
feature mapping.

**Quantize each row once.** Per-row int8 (and fp16) quantization
depends only on the row, so ``quantize(F[idx]) == quantize(F)[idx]``
bit for bit. A pipeline built with ``encode_once=True`` — the
in-process sessions' (:class:`~repro.runtime.core.TrainingSession`,
:class:`~repro.serving.ServingSession`) — encodes its read-only store
into a wire table (:func:`repro.kernels.encode`) on its first
accelerator load under a lossy policy, once, under a lock; every
accelerator ``load`` / ``prepare`` then gathers the batch's wire codes
(``gather_wire``) and decodes them into the destination. fp32, CPU
trainers and serving on ``device="cpu"`` never build one.

**Transfer consumes its input.** ``transfer`` is the per-batch round
trip: it quantizes accelerator-bound rows in place, in the array it is
handed. It serves ``bench_e2e``'s replay, which times the stages
apart, and every pipeline without a table: the process-plane worker
replicas and the sharded resolver, whose per-row locality books must
see every gather. Every caller hands it a fresh gather result — never
the feature store or a batch something else still reads. The
in-process training planes never call it on an accelerator batch:
their training lanes load through :meth:`StagePipeline.load`, which
decodes from the table.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from .. import kernels
from ..sampling.base import MiniBatch, Sampler


# ---------------------------------------------------------------------------
# Work sources
# ---------------------------------------------------------------------------

@runtime_checkable
class WorkSource(Protocol):
    """A stream of work items a backend's dispatcher can drain.

    Training's :class:`~repro.runtime.core.BatchPlan` yields
    ``(global_iteration, PlannedIteration)`` pairs off per-epoch
    permutations, and the sharded plane's plan deals the same pairs by
    owner. Either way a backend's dispatcher sees a numbered stream it
    feeds into the stage pipeline, written against the protocol rather
    than the class.
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
        The mini-batch sampler (one RNG stream and one position map,
        neither thread-safe: one thread at a time samples).
    features / labels:
        The feature matrix and (optionally) label vector the gather and
        label stages read. Process-plane workers construct a pipeline
        over their shared-memory views; ``labels=None`` supports
        label-free (inference) stores.
    transfer_precision:
        The PCIe quantization policy (``"fp32"``/``"fp16"``/``"int8"``).
    encode_once:
        Decode accelerator loads from a wire table of ``features``
        encoded once (the in-process sessions); ``False`` keeps the
        per-batch round trip (worker replicas).
    """

    def __init__(self, sampler: Sampler, features: np.ndarray,
                 labels: np.ndarray | None,
                 transfer_precision: str, *,
                 encode_once: bool = False) -> None:
        self.sampler = sampler
        self.features = features
        self.labels = labels
        self.transfer_precision = transfer_precision
        self.encode_once = encode_once
        #: The store's wire rows (:class:`repro.kernels.WireRows`),
        #: built by the first accelerator load; ``None`` until then,
        #: and forever without ``encode_once`` or under fp32.
        self.wire_table: kernels.WireRows | None = None
        self._table_lock = threading.Lock()

    # ------------------------------------------------------------------
    # One method per Fig.-5 producer stage
    # ------------------------------------------------------------------
    def sample(self, targets: np.ndarray) -> MiniBatch:
        """Sample one mini-batch from the sampler's stream. Not
        thread-safe, and no caller needs it to be: every plane samples
        a session's stream from one thread (the in-process producer or
        the caller's thread; a process worker owns its sampler)."""
        return self.sampler.sample(targets)

    def gather(self, mb: MiniBatch) -> np.ndarray:
        """Feature-gather (load) stage: host-DDR row gather into a
        fresh array of the store's dtype."""
        return kernels.gather_rows(self.features, mb.input_nodes)

    def transfer(self, x0: np.ndarray, trainer_kind: str) -> np.ndarray:
        """Transfer stage: the PCIe quantization policy for this link.

        Accelerator-bound batches pay the quantization round trip
        (paper §VIII extension) **in place** — ``x0`` is consumed and
        returned, so hand it a fresh gather result; the CPU trainer
        reads host memory at full precision, so the stage is the
        identity for it.
        """
        if trainer_kind == "accel" and self.transfer_precision != "fp32":
            return kernels.quantize(x0, self.transfer_precision, out=x0)
        return x0

    def _table(self, trainer_kind: str) -> kernels.WireRows | None:
        """The wire table this load decodes from, built on first use;
        ``None`` when the load takes the gather → transfer round
        trip."""
        if not (self.encode_once and trainer_kind == "accel"
                and self.transfer_precision != "fp32"):
            return None
        if self.wire_table is None:
            with self._table_lock:
                if self.wire_table is None:
                    self.wire_table = kernels.encode(
                        self.features, self.transfer_precision)
        return self.wire_table

    def _load_stages(self, trainer_kind: str):
        """The load as its two timed halves: ``(gather, transfer)``,
        each a one-argument callable — the codes gather and the decode
        over a wire table, else :meth:`gather` and :meth:`transfer`."""
        table = self._table(trainer_kind)
        if table is None:
            return (self.gather,
                    lambda x0: self.transfer(x0, trainer_kind))
        return (lambda mb: kernels.gather_wire(table, mb.input_nodes),
                kernels.decode)

    def load(self, mb: MiniBatch, trainer_kind: str) -> np.ndarray:
        """One batch's trainer-ready rows in a fresh array — the
        sequential planes' one call: decoded from the wire table for an
        accelerator under a lossy policy when the pipeline encodes
        once, else gather then transfer."""
        gather, transfer = self._load_stages(trainer_kind)
        return transfer(gather(mb))

    def labels_for(self, mb: MiniBatch) -> np.ndarray | None:
        """This batch's target labels (``None`` on a label-free
        store)."""
        if self.labels is None:
            return None
        return self.labels[mb.targets]

    # ------------------------------------------------------------------
    def prepare(self, targets: np.ndarray, trainer_kind: str, *,
                with_labels: bool = True) -> PreparedBatch:
        """Run the whole producer chain for one work item, timed.

        The serving plane's per-micro-batch path: sample the
        computational graph, then :meth:`load` it in its two timed
        halves (the gather — of wire codes when decoding from the
        table — and the transfer, or decode), and fetch labels when
        the store has them. The returned :class:`StageTimings` are
        what a caller bills against a latency budget.
        """
        gather, transfer = self._load_stages(trainer_kind)
        t0 = time.perf_counter()
        mb = self.sample(targets)
        t1 = time.perf_counter()
        x0 = gather(mb)
        t2 = time.perf_counter()
        x0 = transfer(x0)
        t3 = time.perf_counter()
        labels = self.labels_for(mb) if with_labels else None
        return PreparedBatch(
            mb=mb, x0=x0, labels=labels,
            timings=StageTimings(sample_s=t1 - t0, gather_s=t2 - t1,
                                 transfer_s=t3 - t2))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<StagePipeline {type(self.sampler).__name__} over "
                f"{self.features.shape} features, "
                f"{self.transfer_precision} transfer>")
