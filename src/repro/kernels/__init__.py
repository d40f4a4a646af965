"""Hot-path kernels: one implementation per op, one chokepoint.

The per-iteration numeric work of every execution backend funnels
through the row **gather** and the transfer's wire form: **encode**
rows into int8 codes plus per-row scales (or float16), **gather_wire**
a batch's codes, and **decode** them. (Aggregation runs in the model
layers, through scipy spmm.) The dispatchers below validate their
inputs once, call the NumPy implementation in
:mod:`repro.kernels.fast`, and record the traffic they moved. Every
load returns a fresh array that it owns.

The wire encoding is the tier's only quantizer. Every accelerator load
on every plane gathers from a table encoded once per store (a process
plane's parent encodes it and the shared segment carries it to the
workers); the split ``transfer`` stage the bench replay times encodes
its batch and decodes it. ``decode`` is the cast alone and returns the
rows' int8 scales beside them: the one scale multiply lives in
:class:`~repro.runtime.stage_pipeline.StagePipeline`, and a training
lane or process worker skips it — its model folds the scales into the
input layer.

:mod:`repro.kernels.reference` keeps plain twins as the conformance
oracle: tests and the kernel micro-bench call it by module, and
nothing on a runtime path does. The dispatchers look ``fast.<op>`` up
at call time, so a test can substitute the oracle with
``monkeypatch.setattr(fast, "gather", reference.gather)`` — and forked
process-plane workers inherit the substitution.

Every dispatch also feeds the session-scoped :class:`KernelCounters`
its thread is enlisted into (bytes gathered, payload bytes on the
wire) — the per-iteration traffic accounting the wall-clock bench
reports next to its overlap column.

``docs/kernels.md`` is the author guide: calling convention and the
exactness contract ``fast`` owes ``reference``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from . import fast, reference
from .stats import KernelCounters, merge_counts, record, scoped_counters

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


@dataclass(frozen=True)
class WireRows:
    """Feature rows in their PCIe wire form.

    ``codes`` is int8 (``"int8"``) or float16 (``"fp16"``); an int8
    row carries one scale, ``scales`` ``(rows, 1)`` in ``dtype``, the
    store's dtype that :func:`decode` restores. A session's wire table
    (every store row, encoded once, read-only), one batch's gathered
    rows and the split transfer stage's encoded batch are all this.
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
    """Encode every row of ``features`` into its wire form (``"int8"``
    or ``"fp16"``; an int8 row that is not finite raises
    :class:`ConfigError`) — a store's table, encoded once, or the split
    transfer stage's batch. The returned arrays are read-only."""
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


def decode(wire: WireRows) -> tuple[np.ndarray, np.ndarray | None]:
    """Wire rows cast back into a fresh array of the store's dtype —
    the accelerator load's transfer stage — and their ``(rows, 1)``
    int8 scales (``None`` for fp16, whose cast is the whole decode).
    ``rows * scales`` equals the reference round trip of the rows they
    were encoded from, bit for bit. Bills the batch's wire payload."""
    result = fast.decode(wire.codes, wire.dtype)
    record(decode_calls=1,
           payload_bytes=payload_bytes(wire.mode, *wire.codes.shape))
    return result, wire.scales


__all__ = [
    "TRANSFER_BYTES",
    "payload_bytes",
    "gather_rows",
    "WireRows",
    "encode",
    "gather_wire",
    "decode",
    "fast",
    "reference",
    "KernelCounters",
    "record",
    "scoped_counters",
    "merge_counts",
]
