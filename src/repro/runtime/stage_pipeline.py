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
  ``transfer``), ``load`` (trainer-ready rows), ``load_codes`` (the
  training lanes' and workers' load: int8 codes plus the per-row
  scales the model's input layer folds), and a timed
  :meth:`~StagePipeline.prepare` that runs the whole chain for one
  work item and reports per-stage wall times (what the serving plane
  bills against its latency budget);
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
bit for bit. A pipeline encodes its read-only store into a wire table
(:func:`repro.kernels.encode`) on the first accelerator load under a
lossy policy, once, under a lock (:meth:`StagePipeline.table`); every
accelerator ``load`` / ``load_codes`` / ``prepare`` then gathers the
batch's wire codes (``gather_wire``) and decodes them. A process
plane's parent encodes its session's table before it creates the
shared segment, which carries the codes (and int8 scales) to the
workers, and then drops its own copy; each worker replica adopts the
segment's as its ``wire_table`` and never encodes. fp32, CPU trainers
and serving on ``device="cpu"`` gather float rows and use no table.

**Trainers fold the int8 scale.** ``kernels.decode`` is the cast
alone and hands back the per-row scales; :func:`dequantize` is the one
place they multiply the rows, for :meth:`~StagePipeline.load`,
:meth:`~StagePipeline.prepare` (serving) and
:meth:`~StagePipeline.transfer`, which return dequantized rows. GCN
and SAGE aggregate before they update, so a per-row scale can ride on
the input layer's edge weights instead of multiplying every feature
element: the training lanes and the process workers load through
:meth:`StagePipeline.load_codes`, and an int8 accelerator batch
arrives as the table's codes cast to the store's dtype plus their
per-row scales.

**Transfer is the split stage.** ``transfer`` is the wire round trip
the bench replay times apart from the gather and checks bit for bit
against the fused load: it encodes the rows it is handed and decodes
them into a fresh array, leaving its input untouched. No load calls
it.
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

def dequantize(wire: kernels.WireRows) -> np.ndarray:
    """Wire rows back to dequantized rows of the store's dtype: the
    decode's cast, then the int8 scale multiply in place — the one
    place a load runs that multiply."""
    rows, scales = kernels.decode(wire)
    if scales is not None:
        rows *= scales
    return rows


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
    """

    def __init__(self, sampler: Sampler, features: np.ndarray,
                 labels: np.ndarray | None,
                 transfer_precision: str) -> None:
        self.sampler = sampler
        self.features = features
        self.labels = labels
        self.transfer_precision = transfer_precision
        #: The store's wire rows (:class:`repro.kernels.WireRows`):
        #: encoded by the first accelerator load under a lossy policy,
        #: or adopted from the shared segment by a worker replica;
        #: ``None`` until then, and forever under fp32.
        self.wire_table: kernels.WireRows | None = None
        self._table_lock = threading.Lock()

    # ------------------------------------------------------------------
    # One method per Fig.-5 producer stage
    # ------------------------------------------------------------------
    def sample(self, targets: np.ndarray) -> MiniBatch:
        """Sample one mini-batch from the sampler's stream. Not
        thread-safe, and no caller needs it to be: every plane samples
        each stream from one thread (the in-process producer or the
        caller's thread; a process worker owns its trainer's)."""
        return self.sampler.sample(targets)

    def gather(self, mb: MiniBatch) -> np.ndarray:
        """Feature-gather (load) stage: host-DDR row gather into a
        fresh array of the store's dtype."""
        return kernels.gather_rows(self.features, mb.input_nodes)

    def transfer(self, x0: np.ndarray, trainer_kind: str) -> np.ndarray:
        """Transfer stage, split from the gather: the PCIe quantization
        round trip (paper §VIII extension) for this link, which the
        bench replay times and checks against :meth:`load`.

        An accelerator-bound batch under a lossy policy is encoded and
        decoded into a fresh array, bit for bit the decode of the same
        rows from the wire table; the CPU trainer reads host memory at
        full precision, so the stage is the identity for it.
        """
        if trainer_kind == "accel" and self.transfer_precision != "fp32":
            return dequantize(kernels.encode(x0, self.transfer_precision))
        return x0

    def table(self, trainer_kind: str) -> kernels.WireRows | None:
        """The wire table a load for ``trainer_kind`` decodes from,
        encoded on first use (once, under a lock); ``None`` for the
        CPU trainer or under fp32, whose loads gather float rows."""
        if trainer_kind != "accel" or self.transfer_precision == "fp32":
            return None
        if self.wire_table is None:
            with self._table_lock:
                if self.wire_table is None:
                    self.wire_table = kernels.encode(
                        self.features, self.transfer_precision)
        return self.wire_table

    def _load_stages(self, trainer_kind: str):
        """The load as its two timed halves, each a one-argument
        callable: the codes gather and the decode over the wire table,
        else the row gather and the identity."""
        table = self.table(trainer_kind)
        if table is None:
            return self.gather, lambda x0: x0
        return (lambda mb: kernels.gather_wire(table, mb.input_nodes),
                dequantize)

    def load(self, mb: MiniBatch, trainer_kind: str) -> np.ndarray:
        """One batch's trainer-ready rows in a fresh array — the
        sequential planes' one call: decoded from the wire table for an
        accelerator under a lossy policy, else the gathered rows."""
        gather, decode = self._load_stages(trainer_kind)
        return decode(gather(mb))

    def load_codes(self, mb: MiniBatch, trainer_kind: str
                   ) -> tuple[np.ndarray, np.ndarray | None]:
        """One batch's rows for a trainer whose input layer folds the
        per-row int8 scales: ``(rows, row_scales | None)``, the
        training lanes' and process workers' load.

        An int8 accelerator batch comes as the wire table's codes
        gathered and cast to the store's dtype, plus their ``(rows,
        1)`` scales, with ``rows * row_scales`` equal to :meth:`load`
        bit for bit. Every other batch is :meth:`load`'s rows and
        ``None``.
        """
        table = self.table(trainer_kind)
        if table is None:
            return self.gather(mb), None
        return kernels.decode(kernels.gather_wire(table, mb.input_nodes))

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
        table — and the decode, the identity without a table), and
        fetch labels when the store has them. The returned
        :class:`StageTimings` are what a caller bills against a latency
        budget.
        """
        gather, decode = self._load_stages(trainer_kind)
        t0 = time.perf_counter()
        mb = self.sample(targets)
        t1 = time.perf_counter()
        x0 = gather(mb)
        t2 = time.perf_counter()
        x0 = decode(x0)
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
