"""Element-wise activations (paper Eq. 2: φ = ReLU for both models)."""

from __future__ import annotations

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    """max(x, 0) into a fresh array (the pre-activation is kept for
    :func:`relu_grad`)."""
    return np.maximum(x, 0.0)


def relu_grad(pre_activation: np.ndarray,
              upstream: np.ndarray) -> np.ndarray:
    """Backward of ReLU: pass upstream gradient where input was positive.

    Uses the *pre-activation* values; the subgradient at exactly 0 is taken
    as 0 (PyTorch convention).
    """
    return upstream * (pre_activation > 0.0)
