"""The kernels: bounds-checked copies and a blocked, once-only encode.

The one implementation of each op the :mod:`repro.kernels` dispatchers
call, all pure NumPy so every platform gets them:

* **gather** — one bounds-checked ``np.take`` straight into a fresh
  destination of the source's dtype (the store's floats, or a wire
  table's codes and scales);
* **encode** — a whole store (or one batch) into int8 codes plus
  per-row scales, or a float16 copy. The scales come from two
  ``(rows,)`` reductions (no full-size ``abs`` temporary) and the
  divide / round / clip chain runs in place in a cache-resident block
  buffer reused across the store;
* **decode** — the codes cast into a fresh destination of the store's
  dtype. The int8 scale multiply is not here: the stage pipeline runs
  it where a load wants dequantized rows, and a trainer that folds the
  scales into its input layer never runs it.

Exactness contract (held by the property suite): ``gather``,
``encode`` and ``decode`` match their :mod:`~repro.kernels.reference`
twins **bit for bit** — the gather is a copy, the per-row absmax equals
``max(max(x), -min(x))`` exactly, and round-then-clip runs in the same
order on the same dtypes as the oracle (the clip skipped only where it
is the identity) — and the decoded codes times their scales equal the
oracle's ``reference.quantize`` round trip of the same rows, so backend
trajectories are identical with either implementation.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


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


def gather(features: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row gather into a fresh array of the store's dtype: one
    bounds-checked ``np.take`` straight into the destination."""
    dest = np.empty((index.shape[0], features.shape[1]),
                    dtype=features.dtype)
    _checked_take(features, index, dest)
    return dest


def _row_scales(x: np.ndarray) -> tuple[np.ndarray, bool, np.ndarray]:
    """Per-row symmetric int8 scales ``(rows, 1)`` in ``x``'s dtype,
    whether ``rint(x / scale)`` still needs the clip, and the per-row
    absmax — :func:`encode`'s scale rule.

    ``max(|x|)`` is ``max(max(x), -min(x))``: two ``(rows,)``
    reductions instead of a full-size ``abs`` temporary, bit-equal
    since negation is exact. For a finite row with a normal scale,
    ``|x| <= absmax`` gives ``|fl(x / fl(absmax / 127))| <=
    127 (1 + u)**2 < 127.5``, so ``rint`` never leaves [-127, 127] and
    the clip is the identity; a subnormal scale or a non-finite row
    keeps it.
    """
    absmax = np.maximum(x.max(axis=1), -x.min(axis=1))[:, None]
    scale = np.where(absmax > 0, absmax / 127.0, 1.0)
    clip = bool(absmax.size) and not (
        np.isfinite(absmax).all()
        and scale.min() >= np.finfo(scale.dtype).tiny)
    return scale, clip, absmax


#: Rows :func:`encode` quantizes per block: the block's float scratch
#: stays cache-resident, and one buffer serves every block.
ENCODE_BLOCK_ROWS = 256


def encode(features: np.ndarray, mode: str
           ) -> tuple[np.ndarray, np.ndarray | None]:
    """Every row of ``features`` in its wire form: ``(codes,
    scales)``.

    ``"int8"``: int8 codes plus one scale per row, ``(rows, 1)`` in the
    store's dtype, by :func:`_row_scales` — per-row quantization
    depends only on the row, so the decode of any gathered subset
    equals the round trip of the gathered rows bit for bit. Built
    in :data:`ENCODE_BLOCK_ROWS`-row blocks through one reused scratch
    buffer. A non-finite row has no int8 code (the cast would turn it
    into arbitrary finite values), so it raises
    :class:`~repro.errors.ConfigError` naming the first such row.
    ``"fp16"``: a float16 copy, and no scales.
    """
    if mode == "fp16":
        return features.astype(np.float16), None
    rows, cols = features.shape
    codes = np.empty((rows, cols), dtype=np.int8)
    scales = np.empty((rows, 1), dtype=features.dtype)
    scratch = np.empty((min(rows, ENCODE_BLOCK_ROWS), cols),
                       dtype=features.dtype)
    for start in range(0, rows, ENCODE_BLOCK_ROWS):
        x = features[start:start + ENCODE_BLOCK_ROWS]
        stop = start + x.shape[0]
        scale, clip, absmax = _row_scales(x)
        if clip:
            bad = np.flatnonzero(~np.isfinite(absmax))
            if bad.size:
                raise ConfigError(
                    f"feature row {start + int(bad[0])} is not finite; "
                    f"int8 transfer cannot encode it")
        # rint(x / scale), then the clip where it is not the identity:
        # round *then* clip, like the reference — the order matters at
        # the ±127.5 boundary.
        buf = np.divide(x, scale, out=scratch[:x.shape[0]])
        np.rint(buf, out=buf)
        if clip:
            np.clip(buf, -127, 127, out=buf)
        np.copyto(codes[start:stop], buf, casting="unsafe")
        scales[start:stop] = scale
    return codes, scales


def decode(codes: np.ndarray, dtype) -> np.ndarray:
    """Wire codes cast into a fresh destination of ``dtype``: one exact
    ``copyto``."""
    dest = np.empty(codes.shape, dtype=dtype)
    np.copyto(dest, codes)
    return dest
