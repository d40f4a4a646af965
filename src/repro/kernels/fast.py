"""The kernels: in-place, reduction-restructured NumPy.

The one implementation of each op the :mod:`repro.kernels` dispatchers
call. Two levers, all pure NumPy so every platform gets them:

* **In place** — :func:`quantize` accepts ``out=x``, so the split
  transfer stage's round trip produces the dequantized rows in the
  destination it gathered into: the rows land once in the feature store's dtype, the
  per-row scales come from two ``(rows,)`` reductions (no full-size
  ``abs`` temporary), and the divide / round / clip / rescale chain
  runs in place. The reference gather → quantize composition
  materializes ~7 full-size temporaries for the same result.
* **Quantize once** — :func:`encode` turns a whole store into int8
  codes plus per-row scales (or a float16 copy) once, and
  :func:`decode` turns a gathered batch of them back: a quarter of the
  bytes gathered and a cast plus a multiply per element, instead of
  the full divide / round / rescale chain every batch. A trainer that
  folds the scales into its input layer takes the cast alone
  (``decode`` with no scales).

Every kernel returns its input's dtype — the feature store's for the
gathers; nothing widens.

Exactness contract (held by the property suite): ``gather`` and
``quantize`` (in place or not) match the
:mod:`~repro.kernels.reference` oracle **bit for bit** on finite inputs — the gather is a copy, the
per-row absmax equals ``max(max(x), -min(x))`` exactly, and
round-then-clip runs in the same order on the same dtypes as the
oracle (the clip skipped only where it is the identity); ``decode``
of gathered ``encode`` rows equals ``quantize`` of the gathered rows,
bit for bit, and so does the cast codes times their scales, so backend
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


def quantize(x: np.ndarray, mode: str,
             out: np.ndarray | None = None) -> np.ndarray:
    """Transfer-precision round trip without the reference's int8
    temporaries: one destination buffer (``out`` may be ``x`` itself),
    ufunc ``out=`` all the way through. Preserves the input float
    dtype; the int8 scales are computed in it, like the reference."""
    if mode == "fp32":
        if out is None:
            return x
        np.copyto(out, x)
        return out
    dest = np.empty(x.shape, dtype=x.dtype) if out is None else out
    if mode == "fp16":
        np.copyto(dest, x.astype(np.float16))
        return dest
    # Scales are reduced before the divide writes, so an in-place
    # dest is safe.
    scale, clip, _ = _row_scales(x)
    _int8_codes(x, scale, clip, out=dest)
    dest *= scale
    return dest


def _row_scales(x: np.ndarray) -> tuple[np.ndarray, bool, np.ndarray]:
    """Per-row symmetric int8 scales ``(rows, 1)`` in ``x``'s dtype,
    whether ``rint(x / scale)`` still needs the clip, and the per-row
    absmax — the one scale rule :func:`quantize` and :func:`encode`
    share.

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


def _int8_codes(x: np.ndarray, scale: np.ndarray, clip: bool,
                out: np.ndarray) -> np.ndarray:
    """``rint(x / scale)``, clipped to [-127, 127] when ``clip``, into
    ``out`` (a float buffer): round *then* clip, like the reference —
    the order matters at the ±127.5 boundary."""
    np.divide(x, scale, out=out)
    np.rint(out, out=out)
    if clip:
        np.clip(out, -127, 127, out=out)
    return out


#: Rows :func:`encode` quantizes per block: the block's float scratch
#: stays cache-resident, and one buffer serves every block.
ENCODE_BLOCK_ROWS = 256


def encode(features: np.ndarray, mode: str
           ) -> tuple[np.ndarray, np.ndarray | None]:
    """Every row of ``features`` in its wire form, once: ``(codes,
    scales)``.

    ``"int8"``: int8 codes plus one scale per row, ``(rows, 1)`` in the
    store's dtype, by :func:`quantize`'s own scale rule — per-row
    quantization depends only on the row, so ``decode`` of any gathered
    subset equals ``quantize`` of the gathered rows bit for bit. Built
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
        buf = _int8_codes(x, scale, clip, out=scratch[:x.shape[0]])
        np.copyto(codes[start:stop], buf, casting="unsafe")
        scales[start:stop] = scale
    return codes, scales


def decode(codes: np.ndarray, scales: np.ndarray | None,
           dtype) -> np.ndarray:
    """Wire rows back to ``dtype``: an exact cast ``copyto`` into a
    fresh destination, then the per-row scale multiply in place (int8).
    Two passes beat ``np.multiply(codes, scales, out=dest)``, whose
    implicit cast runs in the multiply's inner loop."""
    dest = np.empty(codes.shape, dtype=dtype)
    np.copyto(dest, codes)
    if scales is not None:
        dest *= scales
    return dest

