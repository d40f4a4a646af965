"""Trainer nodes: one model replica bound to one (modelled) device.

A :class:`TrainerNode` is the functional plane's trainer: a real NumPy
model replica trained on real sampled batches, placed on a CPU or an
accelerator (the timing plane prices the same batches through the
device cost models in :mod:`repro.hw.cost_models`). The hybrid system
instantiates one CPU trainer plus one per accelerator; the multi-GPU
baseline instantiates accelerator trainers only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..nn.loss import accuracy, softmax_cross_entropy
from ..nn.models import GNNModel
from ..sampling.base import MiniBatch


@dataclass(frozen=True)
class TrainerReport:
    """Outcome of one trainer's work on one mini-batch."""

    trainer: str
    loss: float
    accuracy: float
    batch_targets: int


class TrainerNode:
    """One GNN Trainer (paper §III-A).

    Parameters
    ----------
    name:
        Identifier, e.g. ``"cpu"`` or ``"accel0"``.
    kind:
        ``"cpu"`` or ``"accel"`` (placement; decides whether batches must
        cross PCIe, which the runtime accounts).
    model:
        This trainer's model replica.
    dims / model_name:
        Layer dimensions and model family the replica was built with
        (a process worker rebuilds its replica from them).
    """

    def __init__(self, name: str, kind: str, model: GNNModel,
                 dims, model_name: str) -> None:
        if kind not in ("cpu", "accel"):
            raise ConfigError(f"unknown trainer kind {kind!r}")
        self.name = name
        self.kind = kind
        self.model = model
        self.dims = tuple(dims)
        self.model_name = model_name

    def train_minibatch(self, minibatch: MiniBatch, x0: np.ndarray,
                        labels: np.ndarray,
                        global_degrees: np.ndarray | None,
                        row_scales: np.ndarray | None = None
                        ) -> TrainerReport:
        """Forward + backward on one batch; gradients stay in the model.

        The caller (runtime) is responsible for synchronization and the
        optimizer step, mirroring the paper's separation between Trainers
        and the Synchronizer. ``x0`` and ``row_scales`` are what
        :meth:`~repro.runtime.stage_pipeline.StagePipeline.load_codes`
        returns: int8 codes plus the per-row scales the model's input
        layer folds, or rows and ``None``.
        """
        self.model.zero_grad()
        logits = self.model.forward(minibatch, x0, global_degrees,
                                    row_scales)
        loss, dlogits = softmax_cross_entropy(logits, labels)
        acc = accuracy(logits, labels)
        self.model.backward(dlogits)
        return TrainerReport(trainer=self.name, loss=loss, accuracy=acc,
                             batch_targets=minibatch.targets.size)
