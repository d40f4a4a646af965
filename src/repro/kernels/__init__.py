"""Hot-path kernels: one implementation per op, one chokepoint.

The per-iteration numeric work of every execution backend funnels
through three ops — feature-row **gather**, transfer **quantize** and
**segment_sum** aggregation. The dispatchers below validate their
inputs once, call the preallocated / in-place / reduceat NumPy
implementation in :mod:`repro.kernels.fast`, and record the traffic
they moved. The accelerator load path is the pair: gather into one
destination, then ``quantize(dest, mode, out=dest)`` in place.

:mod:`repro.kernels.reference` keeps the original implementations as
the conformance oracle: tests and the kernel micro-bench call it by
module, and nothing on a runtime path does. The dispatchers look
``fast.<op>`` up at call time, so a test can substitute the oracle
with ``monkeypatch.setattr(fast, "gather", reference.gather)`` — and
forked process-plane workers inherit the substitution.

Every dispatch also feeds :data:`COUNTERS` (bytes gathered, payload
bytes quantized, pool hits/misses) — the per-iteration traffic
accounting the wall-clock bench reports next to its overlap column.

``docs/kernels.md`` is the author guide: calling convention, pooling
aliasing rules, and the exactness contract ``fast`` owes ``reference``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from . import fast, reference
from .pool import BufferPool
from .stats import (
    COUNTERS,
    KernelCounters,
    merge_counts,
    record,
    scoped_counters,
)

#: Bytes per feature element on the PCIe link, per precision mode
#: (ground truth; ``repro.runtime.quantize`` re-exports it).
TRANSFER_BYTES = {"fp32": 4, "fp16": 2, "int8": 1}


def _check_matrix(x: np.ndarray, what: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2:
        raise ConfigError(f"expected a 2-D {what} matrix")
    return x


def _check_mode(mode: str) -> None:
    if mode not in TRANSFER_BYTES:
        raise ConfigError(
            f"unknown transfer precision {mode!r}; "
            f"expected one of {sorted(TRANSFER_BYTES)}")


def payload_bytes(mode: str, rows: int, cols: int) -> int:
    """Wire bytes one quantized batch occupies on the PCIe link:
    the payload at the mode's element width, plus one fp32 scale per
    row for the int8 format."""
    _check_mode(mode)
    wire = rows * cols * TRANSFER_BYTES[mode]
    if mode == "int8":
        wire += rows * 4
    return wire


def gather_rows(features: np.ndarray, index: np.ndarray, *,
                out: np.ndarray | None = None,
                pool: BufferPool | None = None) -> np.ndarray:
    """Gather feature rows in the store's dtype — the load-stage kernel.

    ``out`` (a ``(len(index), features.shape[1])`` buffer of the
    store's dtype) or ``pool`` make the call allocation-free; see
    ``docs/kernels.md`` for the aliasing rules pooling imposes on the
    caller.
    """
    features = _check_matrix(features, "feature")
    index = np.asarray(index)
    result = fast.gather(features, index, out=out, pool=pool)
    record(
        gather_calls=1, gather_rows=index.size,
        gather_src_bytes=index.size * features.shape[1]
        * features.itemsize,
        gather_out_bytes=result.nbytes)
    return result


def quantize(x: np.ndarray, mode: str, *,
             out: np.ndarray | None = None,
             pool: BufferPool | None = None) -> np.ndarray:
    """Transfer-precision round trip (dequantized result, input float
    dtype preserved) — the transfer-stage kernel. ``out`` may be ``x``
    itself: the load path quantizes its fresh gather in place."""
    _check_mode(mode)
    x = _check_matrix(x, "feature")
    result = fast.quantize(x, mode, out=out, pool=pool)
    record(
        quantize_calls=1, quantize_in_bytes=x.nbytes,
        payload_bytes=payload_bytes(mode, x.shape[0], x.shape[1]))
    return result


def segment_sum(src: np.ndarray, dst: np.ndarray, h_src: np.ndarray,
                num_dst: int,
                edge_weights: np.ndarray | None = None) -> np.ndarray:
    """Segment-sum aggregation over an edge list (message-dtype result).

    The FPGA-kernel-equivalent path of paper Eq. 1; the production
    model layers aggregate through scipy spmm instead, so this kernel
    may reorder the accumulation (tolerance-equivalent to the oracle).
    """
    src = np.asarray(src)
    dst = np.asarray(dst)
    h_src = _check_matrix(h_src, "message")
    if edge_weights is not None:
        edge_weights = np.asarray(edge_weights, dtype=h_src.dtype)
    result = fast.segment_sum(src, dst, h_src, int(num_dst),
                              edge_weights=edge_weights)
    record(segment_sum_calls=1, segment_sum_edges=src.size)
    return result


__all__ = [
    "TRANSFER_BYTES",
    "payload_bytes",
    "gather_rows",
    "quantize",
    "segment_sum",
    "fast",
    "reference",
    "BufferPool",
    "COUNTERS",
    "KernelCounters",
    "record",
    "scoped_counters",
    "merge_counts",
]
