"""Element-wise activations (paper Eq. 2: φ = ReLU for both models)."""

from __future__ import annotations

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    """max(x, 0) written over ``x``, which is returned: the layers apply
    it to their fresh GEMM output and keep that output for
    :func:`relu_grad`."""
    return np.maximum(x, 0.0, out=x)


def relu_grad(output: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Backward of ReLU: pass upstream gradient where the output is
    positive.

    Reads the ReLU *output*: ``maximum(z, 0) > 0`` holds exactly when
    ``z > 0`` (-0.0 and NaN included), so the mask is the
    pre-activation's bit for bit. The subgradient at exactly 0 is taken
    as 0 (PyTorch convention).
    """
    return upstream * (output > 0.0)
