"""The kernels: preallocated, in-place, reduction-restructured NumPy.

The one implementation of each op the :mod:`repro.kernels` dispatchers
call. Three levers, all pure NumPy so every platform gets them:

* **Preallocation** — every kernel takes ``out=``/``pool=`` and writes
  through ``np.take(..., out=...)`` / ufunc ``out=`` into reusable
  buffers, so steady-state iterations at a pooled call site allocate
  nothing (the pool grows to the largest batch seen, then only hands
  out views).
* **In place** — :func:`quantize` accepts ``out=x``, so the load path
  produces the dequantized trainer input in the destination it
  gathered into: the rows land once in the feature store's dtype, the
  per-row scales come from two ``(rows,)`` reductions (no full-size
  ``abs`` temporary), and the divide / round / clip / rescale chain
  runs in place. The reference gather → quantize composition
  materializes ~7 full-size temporaries for the same result.
* **Reduction restructuring** — :func:`segment_sum` replaces the
  edge-serial ``np.add.at`` scatter (notoriously slow: one bounds-
  checked inner-loop dispatch per edge) with destination-sorted
  ``np.add.reduceat`` runs.

Every kernel returns its input's dtype — the feature store's for the
gathers, the messages' for ``segment_sum``; nothing widens.

Exactness contract (held by the property suite): ``gather`` and
``quantize`` (in place or not) match the
:mod:`~repro.kernels.reference` oracle **bit for bit** on finite inputs — the gather is a copy, the
per-row absmax equals ``max(max(x), -min(x))`` exactly, and
round-then-clip runs in the same order on the same dtypes as the
oracle. Only ``segment_sum`` is tolerance-equivalent (sum order
differs); it is off the training path (models aggregate through
:class:`~repro.nn.aggregators.SparseAggregator`), so backend
trajectories are identical with either implementation.
"""

from __future__ import annotations

import numpy as np

from .pool import BufferPool


def _dest(rows: int, cols: int, dtype, out: np.ndarray | None,
          pool: BufferPool | None) -> np.ndarray:
    """Resolve a kernel's destination buffer: caller's ``out``, a
    pooled view, or a fresh allocation."""
    if out is not None:
        return out
    if pool is not None:
        return pool.take(rows, cols, dtype)
    return np.empty((rows, cols), dtype=dtype)


def _checked_take(features: np.ndarray, index: np.ndarray,
                  out: np.ndarray) -> None:
    """``np.take`` into ``out`` with an explicit up-front bounds check.

    ``mode="raise"`` routes through a bounds-checking inner loop (and a
    temporary) that is ~2.5× slower than the unchecked copy; validating
    the index vector once with two scalar reductions and then taking
    with ``mode="wrap"`` keeps the reference's semantics — including
    negative indices, which wrap exactly like fancy indexing once the
    range check has passed — at full copy speed.
    """
    if index.size:
        lo, hi = int(index.min()), int(index.max())
        if lo < -features.shape[0] or hi >= features.shape[0]:
            bad = hi if hi >= features.shape[0] else lo
            raise IndexError(
                f"index {bad} is out of bounds for axis 0 with size "
                f"{features.shape[0]}")
    np.take(features, index, axis=0, out=out, mode="wrap")


def gather(features: np.ndarray, index: np.ndarray,
           out: np.ndarray | None = None,
           pool: BufferPool | None = None) -> np.ndarray:
    """Row gather in the store's dtype, allocation-free when pooled:
    one bounds-checked ``np.take`` straight into the destination."""
    dest = _dest(index.shape[0], features.shape[1], features.dtype, out,
                 pool)
    _checked_take(features, index, dest)
    return dest


def quantize(x: np.ndarray, mode: str,
             out: np.ndarray | None = None,
             pool: BufferPool | None = None) -> np.ndarray:
    """Transfer-precision round trip without the reference's int8
    temporaries: one destination buffer (``out`` may be ``x`` itself),
    ufunc ``out=`` all the way through. Preserves the input float
    dtype; the int8 scales are computed in it, like the reference."""
    if mode == "fp32":
        if out is None:
            return x
        np.copyto(out, x)
        return out
    rows, cols = x.shape
    dest = _dest(rows, cols, x.dtype, out, pool)
    if mode == "fp16":
        np.copyto(dest, x.astype(np.float16))
        return dest
    # max(|x|) as max(max(x), -min(x)): two (rows,) reductions instead
    # of a full-size abs temporary; bit-equal since negation is exact.
    # Reduced before the divide, so an in-place dest is safe.
    absmax = np.maximum(x.max(axis=1), -x.min(axis=1))[:, None]
    scale = np.where(absmax > 0, absmax / 127.0, 1.0)
    np.divide(x, scale, out=dest)
    # Round *then* clip, like the reference — the order matters at the
    # ±127.5 boundary.
    np.rint(dest, out=dest)
    np.clip(dest, -127, 127, out=dest)
    dest *= scale
    return dest


def segment_sum(src: np.ndarray, dst: np.ndarray, h_src: np.ndarray,
                num_dst: int,
                edge_weights: np.ndarray | None = None) -> np.ndarray:
    """Destination-sorted ``np.add.reduceat`` aggregation.

    Sorts edges by destination, gathers the messages once, and reduces
    each destination's contiguous run in one vectorized pass — the CSR
    row-sum formulation of the same Eq.-1 sum. Accumulation order
    within a destination differs from the reference's source-sorted
    stream, so equality is to floating-point tolerance (documented in
    ``docs/kernels.md``); absent/zero-degree destinations stay zero
    rows exactly as in the reference.
    """
    order = np.argsort(dst, kind="stable")
    dst_o = dst[order]
    messages = h_src[src[order]]
    if edge_weights is not None:
        # ``messages`` is a fresh fancy-index copy: in-place is safe.
        messages *= edge_weights[order][:, None]
    out = np.zeros((num_dst, h_src.shape[1]), dtype=messages.dtype)
    if dst_o.size:
        starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(dst_o)) + 1])
        out[dst_o[starts]] = np.add.reduceat(messages, starts, axis=0)
    return out
