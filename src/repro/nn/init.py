"""Parameter initializers — the one place ``nn`` names a compute dtype.

All initializers take an explicit :class:`numpy.random.Generator` so model
construction is reproducible from a single seed (required by the
sync-SGD-equivalence tests, which must build bit-identical model replicas).

Parameters are float32 (the paper prices every weight at ``S_feat = 4``
bytes, Eq. 13). Everything downstream follows the parameters' dtype, so
an up-cast copy of a model computes in that dtype instead.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


def xavier_uniform(shape: tuple[int, ...],
                   rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform init: U(-a, a) with a = sqrt(6 / (fan_in+out)).

    Matches the PyTorch-Geometric default for GCN/SAGE linear weights.
    """
    if len(shape) != 2:
        raise ShapeError(f"xavier_uniform expects a 2-D shape, got {shape}")
    fan_in, fan_out = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros_init(shape: tuple[int, ...],
               rng: np.random.Generator | None = None) -> np.ndarray:
    """Zero init (biases)."""
    return np.zeros(shape, dtype=np.float32)
