"""Hot-path kernels: one implementation per op, one chokepoint.

The per-iteration numeric work of every execution backend funnels
through two ops — feature-row **gather** and transfer **quantize** —
plus the transfer's wire form: **encode** a whole store once, then
**gather_wire** a batch's codes and **decode** them. (Aggregation runs
in the model layers, through scipy spmm.) The dispatchers below
validate their inputs once, call the in-place NumPy implementation in
:mod:`repro.kernels.fast`, and record the traffic they moved. Every
load returns a fresh array that it owns. Every accelerator load on
every plane is ``decode(gather_wire(table, idx))`` over a table
encoded once per store (a process plane's parent encodes it and the
shared segment carries it to the workers); a training lane or process
worker loading int8 rows stops one multiply short — **decode_codes**,
the cast alone — and its model folds the per-row scales into the
input layer. ``quantize`` remains as the per-batch round trip of the
split ``transfer`` stage that the bench replay times; it runs in place
on the stage's fresh gather (``out=``).

:mod:`repro.kernels.reference` keeps the original implementations as
the conformance oracle: tests and the kernel micro-bench call it by
module, and nothing on a runtime path does. The dispatchers look
``fast.<op>`` up at call time, so a test can substitute the oracle
with ``monkeypatch.setattr(fast, "gather", reference.gather)`` — and
forked process-plane workers inherit the substitution.

Every dispatch also feeds :data:`COUNTERS` (bytes gathered, payload
bytes quantized) — the per-iteration traffic accounting the
wall-clock bench reports next to its overlap column.

``docs/kernels.md`` is the author guide: calling convention and the
exactness contract ``fast`` owes ``reference``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from . import fast, reference
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


def gather_rows(features: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Gather feature rows into a fresh array of the store's dtype —
    the load-stage kernel."""
    features = _check_matrix(features, "feature")
    index = np.asarray(index)
    result = fast.gather(features, index)
    record(
        gather_calls=1, gather_rows=index.size,
        gather_src_bytes=index.size * features.shape[1]
        * features.itemsize,
        gather_out_bytes=result.nbytes)
    return result


def quantize(x: np.ndarray, mode: str, *,
             out: np.ndarray | None = None) -> np.ndarray:
    """Transfer-precision round trip (dequantized result, input float
    dtype preserved) — the split transfer stage's kernel. ``out`` may be
    ``x`` itself: the stage quantizes its fresh gather in place."""
    _check_mode(mode)
    x = _check_matrix(x, "feature")
    result = fast.quantize(x, mode, out=out)
    record(
        quantize_calls=1, quantize_in_bytes=x.nbytes,
        payload_bytes=payload_bytes(mode, x.shape[0], x.shape[1]))
    return result


@dataclass(frozen=True)
class WireRows:
    """Feature rows in their PCIe wire form.

    ``codes`` is int8 (``"int8"``) or float16 (``"fp16"``); an int8
    row carries one scale, ``scales`` ``(rows, 1)`` in ``dtype``, the
    store's dtype that :func:`decode` restores. A session's wire table
    (every store row, encoded once, read-only) and one batch's gathered
    rows are both this.
    """

    mode: str
    codes: np.ndarray
    scales: np.ndarray | None
    dtype: np.dtype

    @property
    def nbytes(self) -> int:
        """Bytes held: the codes plus the scales."""
        return self.codes.nbytes + (
            0 if self.scales is None else self.scales.nbytes)


def encode(features: np.ndarray, mode: str) -> WireRows:
    """Encode every row of a feature store into its wire form, once —
    the table accelerator loads decode from (``"int8"`` or
    ``"fp16"``; an int8 store with a non-finite row raises
    :class:`ConfigError`). The returned arrays are read-only."""
    _check_mode(mode)
    if mode == "fp32":
        raise ConfigError("fp32 transfer has no wire encoding")
    features = _check_matrix(features, "feature")
    codes, scales = fast.encode(features, mode)
    for a in (codes, scales):
        if a is not None:
            a.flags.writeable = False
    record(encode_calls=1)
    return WireRows(mode, codes, scales, features.dtype)


def gather_wire(table: WireRows, index: np.ndarray) -> WireRows:
    """Gather one batch's wire rows (codes and scales) from a table —
    the accelerator load's gather stage, counted as one gather of the
    wire bytes."""
    index = np.asarray(index)
    codes = fast.gather(table.codes, index)
    scales = (None if table.scales is None
              else fast.gather(table.scales, index))
    rows = WireRows(table.mode, codes, scales, table.dtype)
    record(gather_calls=1, gather_rows=index.size,
           gather_src_bytes=rows.nbytes, gather_out_bytes=rows.nbytes)
    return rows


def decode(wire: WireRows) -> np.ndarray:
    """Dequantize wire rows into the store's dtype — the accelerator
    load's transfer stage, bit-identical to :func:`quantize` of the
    rows they were encoded from. Bills the same ``payload_bytes`` the
    per-batch round trip does."""
    result = fast.decode(wire.codes, wire.scales, wire.dtype)
    record(decode_calls=1,
           payload_bytes=payload_bytes(wire.mode, *wire.codes.shape))
    return result


def decode_codes(wire: WireRows) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`decode` minus its scale multiply: ``(codes, scales)``,
    the codes cast into a fresh array of the store's dtype and the
    rows' scales (``None`` for fp16, whose cast is the whole decode).
    ``codes * scales`` is :func:`decode` ``(wire)`` bit for bit, and
    bills the same counters."""
    result = fast.decode(wire.codes, None, wire.dtype)
    record(decode_calls=1,
           payload_bytes=payload_bytes(wire.mode, *wire.codes.shape))
    return result, wire.scales


__all__ = [
    "TRANSFER_BYTES",
    "payload_bytes",
    "gather_rows",
    "quantize",
    "WireRows",
    "encode",
    "gather_wire",
    "decode",
    "decode_codes",
    "fast",
    "reference",
    "COUNTERS",
    "KernelCounters",
    "record",
    "scoped_counters",
    "merge_counts",
]
