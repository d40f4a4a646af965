"""Reference kernels: the conformance oracle.

These are the library's original hot-path implementations, moved here
verbatim so :mod:`repro.kernels.fast` has a fixed semantic target:
plain, easily auditable NumPy with no buffer reuse, no in-place
steps, and no layout tricks. The property suite
(``tests/unit/test_kernels.py``) holds the fast kernels to these
outputs — bit-exactly for ``gather`` and ``quantize`` (and so for the
load path, which decodes a gathered slice of a once-encoded wire
table, and for the split transfer stage's gather → quantize).

No runtime path calls this module: tests and
``benchmarks/bench_kernels_micro.py`` call it by name. It shares the
fast kernels' calling convention — pre-validated inputs, and for
``quantize`` an optional caller-owned ``out=`` destination (so a test
can substitute it under the in-place round trip): its role is to be
the obviously-correct allocation-per-call baseline the benches
compare against.
"""

from __future__ import annotations

import numpy as np


def gather(features: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row gather in the store's dtype via one fancy-index copy (a
    fresh C-contiguous array)."""
    return features[index]


def quantize(x: np.ndarray, mode: str,
             out: np.ndarray | None = None) -> np.ndarray:
    """Transfer-precision round trip, one temporary per step.

    Per-row symmetric int8 (each row ships an fp32 scale alongside the
    payload) or an IEEE-half round trip. Preserves the input float
    dtype — a float32 batch comes back float32.
    """
    if mode == "fp32":
        result = x
    elif mode == "fp16":
        result = x.astype(np.float16).astype(x.dtype)
    else:  # int8: symmetric per-row scale.
        absmax = np.abs(x).max(axis=1, keepdims=True)
        scale = np.where(absmax > 0, absmax / 127.0, 1.0)
        q = np.clip(np.round(x / scale), -127, 127).astype(np.int8)
        result = q.astype(x.dtype) * scale
    if out is not None:
        np.copyto(out, result)
        return out
    return result

