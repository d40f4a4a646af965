"""Softmax cross-entropy loss with manual backward.

The loss is the *mean* over the batch targets. Mean reduction is what makes
synchronous multi-trainer SGD equivalent to large-batch single-trainer SGD
(paper §II-B): averaging n equal-size-batch gradients equals the gradient
of the mean over the union batch.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray
                          ) -> tuple[float, np.ndarray]:
    """Return ``(loss, dlogits)`` for integer class labels.

    Numerically stable (max-subtracted) softmax; gradient is
    ``(softmax - onehot) / batch`` for the mean-reduced loss. The NLL is
    taken in log-sum-exp form, ``log Σ exp(shifted) - shifted[label]``,
    so a vanishing probability needs no clamp in any dtype.
    """
    if logits.ndim != 2:
        raise ShapeError("logits must be (batch, classes)")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise ShapeError("labels must be (batch,)")
    if labels.size == 0:
        raise ShapeError("empty batch")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ShapeError("label out of range")

    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    probs = exp / total
    batch = logits.shape[0]
    nll = np.log(total[:, 0]) - shifted[np.arange(batch), labels]
    loss = float(nll.mean())

    dlogits = probs.copy()
    dlogits[np.arange(batch), labels] -= 1.0
    dlogits /= batch
    return loss, dlogits


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy."""
    if logits.shape[0] == 0:
        return 0.0
    pred = np.argmax(logits, axis=1)
    return float((pred == np.asarray(labels)).mean())
