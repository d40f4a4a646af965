"""Gradient synchronizer: gather → average → broadcast (paper §III-A).

The Synchronizer implements synchronous SGD across trainer model replicas.
Averaging is *weighted by batch size*: with DRM the per-trainer
mini-batch sizes differ, and the weighted average is what keeps the hybrid
update bit-equivalent to single-device large-batch SGD (each trainer's
gradient is the mean over its own batch; the weighted combination equals
the mean over the union batch). With equal batch sizes the weighted and
uniform averages coincide, which is the case the paper describes
("training on 4 GPUs with mini-batch size 1024 is equivalent to training
on 1 GPU with mini-batch size 4096").

The synchronizer is arithmetic only. The handshake around it — Listing
1's ``DONE`` / ``SYNC`` / ``ACK`` — is recorded by the one synchronize
tail every backend ends an iteration in
(:meth:`~repro.runtime.backends.base.ExecutionBackend.end_iteration`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ProtocolError, ShapeError
from ..nn.models import GNNModel


class GradientSynchronizer:
    """Batch-size-weighted all-reduce over a fixed set of model
    replicas, which must all have an identical parameter layout."""

    def __init__(self, models: Sequence[GNNModel]) -> None:
        if not models:
            raise ProtocolError("synchronizer needs at least one model")
        sizes = {m.num_params for m in models}
        if len(sizes) != 1:
            raise ShapeError("replicas disagree on parameter count")
        self.models = list(models)

    @property
    def num_trainers(self) -> int:
        return len(self.models)

    # ------------------------------------------------------------------
    def all_reduce(self, batch_sizes: Sequence[int] | None = None,
                   iteration: int = 0) -> np.ndarray:
        """Average gradients across replicas, weighted by
        ``batch_sizes`` (one per replica, non-negative, not all zero),
        and write them back. ``iteration`` names the iteration being
        reduced, for whoever wraps this call.

        Returns the averaged flat gradient (mainly for inspection).
        """
        if batch_sizes is None:
            raise ProtocolError("batch weighting requires batch_sizes")
        if len(batch_sizes) != self.num_trainers:
            raise ShapeError("one batch size per trainer required")
        w = np.asarray(batch_sizes, dtype=np.float64)
        if (w < 0).any() or w.sum() <= 0:
            raise ShapeError("batch sizes must be non-negative and "
                             "not all zero")
        w = w / w.sum()
        flats = [m.get_flat_grads() for m in self.models]
        avg = np.zeros_like(flats[0])
        for wi, f in zip(w, flats):
            avg += wi * f
        for m in self.models:
            m.set_flat_grads(avg)
        return avg

    def replicas_consistent(self, atol: float = 1e-9) -> bool:
        """Are all replica parameters (near-)identical?"""
        ref = self.models[0].get_flat_params()
        return all(np.allclose(m.get_flat_params(), ref, atol=atol)
                   for m in self.models[1:])
