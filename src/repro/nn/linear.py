"""Dense (feature-update) layer — the MLP of paper Eq. 2.

Forward: ``Y = X @ W + b``. The backward pass produces parameter gradients
and, unless the caller opts out, the input gradient. Parameters and
gradients are exposed by name for the optimizer and the gradient
synchronizer.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .init import xavier_uniform, zeros_init


class Linear:
    """Affine transform with manual backward.

    Attributes
    ----------
    W, b:
        Parameters, float32 from :mod:`~repro.nn.init`. Forward and
        backward compute in their dtype.
    dW, db:
        Gradients, populated by :meth:`backward`, zeroed by
        :meth:`zero_grad`.
    """

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator) -> None:
        if in_dim <= 0 or out_dim <= 0:
            raise ShapeError("dimensions must be positive")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.W = xavier_uniform((in_dim, out_dim), rng)
        self.b = zeros_init((out_dim,))
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute ``x @ W + b``; caller keeps ``x`` for backward."""
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(
                f"expected (*, {self.in_dim}) input, got {x.shape}")
        return x @ self.W + self.b

    def backward(self, x: np.ndarray, grad_out: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Accumulate dW/db and return the gradient w.r.t. ``x``.

        ``input_grad=False`` skips the ``grad_out @ W.T`` GEMM and
        returns ``None`` — for a layer whose input is the feature matrix,
        which nothing differentiates (see :meth:`GNNModel.backward`).
        """
        if grad_out.shape != (x.shape[0], self.out_dim):
            raise ShapeError("grad_out shape mismatch")
        self.dW += x.T @ grad_out
        self.db += grad_out.sum(axis=0)
        return grad_out @ self.W.T if input_grad else None

    def zero_grad(self) -> None:
        """Reset accumulated gradients."""
        self.dW[...] = 0.0
        self.db[...] = 0.0

    @property
    def num_params(self) -> int:
        """Total scalar parameter count."""
        return self.W.size + self.b.size
