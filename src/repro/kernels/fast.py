"""The kernels: preallocated, fused, reduction-restructured NumPy.

The one implementation of each op the :mod:`repro.kernels` dispatchers
call. Three levers, all pure NumPy so every platform gets them:

* **Preallocation** — every kernel takes ``out=``/``pool=`` and writes
  through ``np.take(..., out=...)`` / ufunc ``out=`` into reusable
  buffers, so steady-state iterations at a pooled call site allocate
  nothing (the pool grows to the largest batch seen, then only hands
  out views).
* **Fusion** — :func:`gather_quantize` produces the dequantized
  trainer input in a single pass over the gathered rows: the float32
  rows are staged once, the per-row scales come from two ``(rows,)``
  reductions (no full-size ``abs`` temporary), and the divide / round /
  clip / rescale chain runs in place on the float64 output. The
  reference composition materializes ~7 full-size temporaries for the
  same result.
* **Reduction restructuring** — :func:`segment_sum` replaces the
  edge-serial ``np.add.at`` scatter (notoriously slow: one bounds-
  checked inner-loop dispatch per edge) with destination-sorted
  ``np.add.reduceat`` runs.

Exactness contract (held by the property suite): ``gather`` and
``gather_quantize``/``quantize`` match the :mod:`~repro.kernels.reference`
oracle **bit for bit** on finite inputs — the float64 widen is exact,
the per-row absmax equals ``max(max(x), -min(x))`` exactly, and
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


def _take_rows(features: np.ndarray, index: np.ndarray,
               pool: BufferPool | None) -> np.ndarray:
    """Stage the selected rows in the feature store's own dtype (one
    ``np.take`` into pooled or fresh memory — ``np.take`` requires a
    dtype-matched destination)."""
    rows, cols = index.shape[0], features.shape[1]
    if pool is not None:
        stage = pool.take(rows, cols, features.dtype)
    else:
        stage = np.empty((rows, cols), dtype=features.dtype)
    _checked_take(features, index, stage)
    return stage


def gather(features: np.ndarray, index: np.ndarray,
           out: np.ndarray | None = None,
           pool: BufferPool | None = None) -> np.ndarray:
    """Row gather + float64 widen, allocation-free when pooled.

    float64 stores gather straight into the destination; narrower
    stores stage in their own dtype (a second pooled buffer class) and
    widen with one ``copyto`` — same two passes as the reference, but
    into reused memory.
    """
    rows, cols = index.shape[0], features.shape[1]
    dest = _dest(rows, cols, np.float64, out, pool)
    if features.dtype == np.float64:
        _checked_take(features, index, dest)
    else:
        stage = _take_rows(features, index, pool)
        np.copyto(dest, stage)
    return dest


def _row_scales(x: np.ndarray) -> np.ndarray:
    """Per-row symmetric int8 scales as float64 ``(rows, 1)``.

    ``max(|x|)`` computed as ``max(max(x), -min(x))`` — two ``(rows,)``
    reductions instead of a full-size ``abs`` temporary; bit-equal
    because negation of a float is exact. The divide by 127 happens in
    float64 so the scales match the reference path's widened
    computation bit for bit whatever the store dtype.
    """
    absmax = np.maximum(x.max(axis=1), -x.min(axis=1))
    absmax = absmax.astype(np.float64, copy=False)[:, None]
    return np.where(absmax > 0, absmax / 127.0, 1.0)


def _dequantize_inplace(dest: np.ndarray, scale: np.ndarray) -> None:
    """Round / clip / rescale ``dest`` (already ``x / scale``) in
    place. Round *then* clip, like the reference — the order matters at
    the ±127.5 boundary."""
    np.rint(dest, out=dest)
    np.clip(dest, -127, 127, out=dest)
    dest *= scale


def quantize(x: np.ndarray, mode: str,
             out: np.ndarray | None = None,
             pool: BufferPool | None = None) -> np.ndarray:
    """Transfer-precision round trip without the reference's int8 and
    float64 temporaries: one destination buffer, ufunc ``out=`` all the
    way through. Preserves the input float dtype."""
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
    # int8: scales in x's dtype to match the reference computation.
    absmax = np.maximum(x.max(axis=1), -x.min(axis=1))[:, None]
    scale = np.where(absmax > 0, absmax / 127.0, 1.0)
    np.divide(x, scale, out=dest)
    _dequantize_inplace(dest, scale)
    return dest


def gather_quantize(features: np.ndarray, index: np.ndarray, mode: str,
                    out: np.ndarray | None = None,
                    pool: BufferPool | None = None) -> np.ndarray:
    """Fused gather + dequantized transfer: int8/fp16 payload semantics
    applied directly from the feature store, no float64 intermediate
    between the stages.

    The rows are staged once in store dtype; the scales come from the
    staged rows (exact — see :func:`_row_scales`); the divide widens
    straight into the float64 destination, and round / clip / rescale
    run in place. Bit-identical to the reference gather → quantize
    composition on finite inputs.
    """
    if mode == "fp32":
        return gather(features, index, out=out, pool=pool)
    rows, cols = index.shape[0], features.shape[1]
    dest = _dest(rows, cols, np.float64, out, pool)
    if features.dtype == np.float64:
        # Gather straight into the destination and quantize in place
        # (the scales are reduced out before the divide overwrites).
        _checked_take(features, index, dest)
        stage = dest
    else:
        stage = _take_rows(features, index, pool)
    if mode == "fp16":
        np.copyto(dest, stage.astype(np.float16))
        return dest
    scale = _row_scales(stage)
    np.divide(stage, scale, out=dest)
    _dequantize_inplace(dest, scale)
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
    if messages.dtype != np.float64:
        messages = messages.astype(np.float64)
    if edge_weights is not None:
        # ``messages`` is a fresh fancy-index copy: in-place is safe.
        messages *= edge_weights[order][:, None]
    out = np.zeros((num_dst, h_src.shape[1]), dtype=np.float64)
    if dst_o.size:
        starts = np.concatenate(
            [[0], np.flatnonzero(np.diff(dst_o)) + 1])
        out[dst_o[starts]] = np.add.reduceat(messages, starts, axis=0)
    return out
