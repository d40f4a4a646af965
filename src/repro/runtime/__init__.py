"""The HyScale-GNN runtime: protocol, pipeline, DRM, and the hybrid system.

This package is the paper's primary contribution (§III-§IV):

* :mod:`repro.runtime.protocol` — the processor-accelerator training
  protocol's handshake signals and ordering invariants (paper Fig. 5,
  Listing 1);
* :mod:`repro.runtime.synchronizer` — gradient all-reduce across trainer
  replicas (gather → average → broadcast);
* :mod:`repro.runtime.trainer` — CPU and accelerator trainer nodes
  (functional NumPy training + kernel-model timing);
* :mod:`repro.runtime.prefetch` — the two-stage feature prefetch buffers;
* :mod:`repro.runtime.drm` — the Dynamic Resource Management engine
  (paper Algorithm 1, verbatim decision structure);
* :mod:`repro.runtime.core` — the shared runtime core:
  :class:`TrainingSession` (owns all construction: sampler via the
  registry in :mod:`repro.sampling`, trainer replicas, synchronizer,
  optimizers, perf model, DRM, quantize policy) and :class:`BatchPlan`
  (the per-trainer quota / permutation-cursor logic, implemented once);
* :mod:`repro.runtime.backends` — pluggable execution strategies over
  the core. The **backend registry** maps a name to an
  :class:`ExecutionBackend` subclass (``get_backend`` /
  ``build_backend``), two drivers with presets: the in-process driver
  (a feed seam in front of a train + sync consumer on the caller's
  thread) as ``virtual`` (the thread-less modelled-hardware
  reference), ``threaded`` and ``pipelined``, and the process-plane
  driver as ``process``, ``process_sampling``, ``process_pipelined``
  and ``sharded``. Every run returns one ``RunReport``. All
  execute the *same* plan and session, so hybrid split, DRM, prefetch
  and transfer quantization behave identically on each; new executors
  join via :func:`register_backend` and inherit the tiered conformance
  suite (``tests/integration/backend_conformance.py``) — the author
  guide is ``docs/backends.md``;
* :mod:`repro.runtime.shm` — :class:`SharedFeatureStore`, the
  single-segment shared-memory mapping of the dataset's features,
  labels and CSR topology that process workers gather from zero-copy;
* :mod:`repro.runtime.resctl` — online calibration:
  :class:`OnlineEstimator` calibrates the analytic perf model against
  the realized per-stage wall times the live planes' replies carry;
  ``pipelined`` and ``process_pipelined`` calibrate their DRM step
  through one (see ``docs/architecture.md``).

The HyScale-GNN system is a :class:`TrainingSession` executed by a
backend: ``VirtualTimeBackend(session)`` for the modelled-hardware
reference, or ``build_backend(name, session, **knobs)`` for any
registered plane.
"""

from .protocol import ProtocolLog, ProtocolEvent, Signal, validate_protocol
from .synchronizer import GradientSynchronizer
from .trainer import TrainerNode, TrainerReport
from .prefetch import PrefetchBuffer
from .drm import DRMDecision, DRMEngine
from .core import BatchPlan, PlannedIteration, TrainingSession
from .stage_pipeline import (
    PreparedBatch,
    StagePipeline,
    StageTimings,
    WorkSource,
)
from .shm import (
    SharedFeatureStore,
    SharedSamplerSpec,
    SharedStoreManifest,
)
from .backends import (
    BACKENDS,
    ExecutionBackend,
    PipelinedBackend,
    ProcessPipelinedBackend,
    ProcessPoolBackend,
    ProcessSamplingBackend,
    RunReport,
    ShardedBackend,
    ThreadedBackend,
    VirtualTimeBackend,
    available_backends,
    build_backend,
    get_backend,
    register_backend,
)
from .backends.report import StageStats
from .backends.overlap import LookaheadDealer
from .resctl import OnlineEstimator, fold_worker_realized

__all__ = [
    "Signal",
    "ProtocolEvent",
    "ProtocolLog",
    "validate_protocol",
    "GradientSynchronizer",
    "TrainerNode",
    "TrainerReport",
    "PrefetchBuffer",
    "DRMEngine",
    "DRMDecision",
    "TrainingSession",
    "BatchPlan",
    "PlannedIteration",
    "StagePipeline",
    "StageTimings",
    "PreparedBatch",
    "WorkSource",
    "ExecutionBackend",
    "VirtualTimeBackend",
    "ThreadedBackend",
    "ProcessPoolBackend",
    "ProcessSamplingBackend",
    "PipelinedBackend",
    "ProcessPipelinedBackend",
    "ShardedBackend",
    "RunReport",
    "LookaheadDealer",
    "StageStats",
    "OnlineEstimator",
    "fold_worker_realized",
    "SharedFeatureStore",
    "SharedSamplerSpec",
    "SharedStoreManifest",
    "BACKENDS",
    "register_backend",
    "get_backend",
    "available_backends",
    "build_backend",
]
