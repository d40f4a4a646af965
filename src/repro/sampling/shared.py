"""Per-trainer sampler streams, in process and over shared memory.

HyScale-GNN gives every device its own Mini-batch Sampler (paper
§III-A), and DistDGL-style systems push neighbor sampling *into* the
trainer processes, each with its own RNG stream. Every training plane
here does the same: trainer ``t`` samples its batches from stream ``t``
whichever thread or process runs it. This module builds those streams:

* :func:`worker_stream_seed` — deterministic, **independent** per-trainer
  seeds derived through :class:`numpy.random.SeedSequence`. Trainer
  ``t``'s stream depends only on ``(base_seed, t)``, never on how many
  trainers run, so adding a trainer leaves every existing stream
  untouched (the property the unit suite pins).
* :func:`trainer_sampler` — the configured family on trainer ``t``'s
  stream; a :class:`~repro.runtime.core.TrainingSession` builds one per
  trainer.
* :func:`build_worker_sampler` — the same sampler inside a worker
  process, against the CSR topology and train-id set mapped zero-copy
  from a :class:`~repro.runtime.shm.SharedFeatureStore`. The family is
  resolved through the ordinary registry, so third-party samplers
  inherit worker-side execution for free.

A worker's sampler starts at its seed; the process planes then hand it
the session's stream position (:attr:`~.base.Sampler.stream_state`) at
the start of every run and take it back at the end, so a stream
continues across runs and planes. Every registered sampler is already
picklable in *spec* form — the
:class:`~repro.runtime.shm.SharedSamplerSpec` carries the
:class:`~repro.config.TrainingConfig` plus the feature dim, and the
topology travels in the shared segment, so nothing graph-sized ever
crosses a pipe.
"""

from __future__ import annotations

import numpy as np

from ..errors import SamplingError
from .base import Sampler


def worker_stream_seed(base_seed: int, worker_index: int) -> int:
    """Derive trainer ``worker_index``'s sampler seed from ``base_seed``.

    Uses ``SeedSequence([base_seed, worker_index])`` so the derived
    streams are statistically independent of each other *and* of the
    session's other streams (the sampling profile uses ``base_seed``
    directly, its probe targets and the plan ``base_seed + 1/2``) — not
    an ad-hoc ``base + index`` offset, which would collide with them.
    """
    if worker_index < 0:
        raise SamplingError("worker_index must be non-negative")
    seq = np.random.SeedSequence([int(base_seed), int(worker_index)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def trainer_sampler(graph, train_ids, train_cfg, feature_dim: int,
                    index: int) -> Sampler:
    """The configured sampler family on trainer ``index``'s stream,
    seeded :func:`worker_stream_seed` ``(train_cfg.seed, index)``."""
    from . import build_sampler  # lazy: avoid import cycle at load

    cfg = train_cfg.with_updates(
        seed=worker_stream_seed(train_cfg.seed, index))
    return build_sampler(cfg.sampler, graph, train_ids, cfg, feature_dim)


def build_worker_sampler(store, worker_index: int) -> Sampler:
    """Rebuild trainer ``worker_index``'s sampler inside a worker process.

    ``store`` is an attached :class:`~repro.runtime.shm.SharedFeatureStore`
    whose manifest carries a :class:`~repro.runtime.shm.SharedSamplerSpec`;
    the sampler samples directly against the shared ``indptr`` /
    ``indices`` / ``train_ids`` views (zero-copy), at the start of the
    trainer's stream.
    """
    spec = store.manifest.sampler
    if spec is None:
        raise SamplingError(
            "shared store carries no sampler spec: create() the store "
            "with sampler_spec=... to run worker-side sampling")
    return trainer_sampler(store.csr_graph(), store.train_ids,
                           spec.train_cfg, spec.feature_dim, worker_index)
