"""Reference kernels: the conformance oracle.

Plain, easily auditable NumPy with no buffer reuse, no in-place steps
and no layout tricks, so :mod:`repro.kernels.fast` has a fixed semantic
target. ``gather`` and ``quantize`` are the library's original hot-path
implementations, moved here verbatim; ``encode`` and ``decode`` are
their wire-form twins, built from ``quantize``'s own steps. The
property suite (``tests/unit/test_kernels.py``) holds the fast kernels
to these outputs bit for bit: ``gather``, ``encode`` and ``decode``
twin for twin, and the decoded codes times their scales against
``quantize`` of the same rows — the exactness contract every load
rests on.

No runtime path calls this module: tests and
``benchmarks/bench_kernels_micro.py`` call it by name. It shares the
fast kernels' calling convention (pre-validated inputs), so a test can
substitute any twin for its fast op; its role is to be the
obviously-correct allocation-per-call baseline the benches compare
against.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


def gather(features: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row gather in the store's dtype via one fancy-index copy (a
    fresh C-contiguous array)."""
    return features[index]


def quantize(x: np.ndarray, mode: str) -> np.ndarray:
    """Transfer-precision round trip, one temporary per step.

    Per-row symmetric int8 (each row ships an fp32 scale alongside the
    payload) or an IEEE-half round trip. Preserves the input float
    dtype — a float32 batch comes back float32.
    """
    if mode == "fp32":
        return x
    if mode == "fp16":
        return x.astype(np.float16).astype(x.dtype)
    # int8: symmetric per-row scale.
    absmax = np.abs(x).max(axis=1, keepdims=True)
    scale = np.where(absmax > 0, absmax / 127.0, 1.0)
    q = np.clip(np.round(x / scale), -127, 127).astype(np.int8)
    return q.astype(x.dtype) * scale


def encode(features: np.ndarray, mode: str
           ) -> tuple[np.ndarray, np.ndarray | None]:
    """``(codes, scales)`` by :func:`quantize`'s scale rule: int8 codes
    plus ``(rows, 1)`` scales in the store's dtype, or a float16 copy
    and no scales. A non-finite int8 row raises
    :class:`~repro.errors.ConfigError` naming the first such row."""
    if mode == "fp16":
        return features.astype(np.float16), None
    absmax = np.abs(features).max(axis=1, keepdims=True)
    bad = np.flatnonzero(~np.isfinite(absmax))
    if bad.size:
        raise ConfigError(f"feature row {int(bad[0])} is not finite; "
                          f"int8 transfer cannot encode it")
    scale = np.where(absmax > 0, absmax / 127.0, 1.0)
    codes = np.clip(np.round(features / scale), -127, 127)
    return codes.astype(np.int8), scale


def decode(codes: np.ndarray, dtype) -> np.ndarray:
    """Wire codes cast to ``dtype`` (a fresh array)."""
    return codes.astype(dtype)
