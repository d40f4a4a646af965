"""Feature quantization for PCIe transfer (paper §VIII future work).

The paper's stated future work: "we plan to exploit techniques like data
quantization to relieve the stress on the PCIe bandwidth". This module
implements it: mini-batch feature matrices destined for accelerators are
quantized before crossing PCIe (and dequantized on-device), cutting the
Data Transfer stage's traffic 2× (fp16) or 4× (int8).

The functional plane applies the *real* quantize-dequantize round trip to
accelerator trainers' inputs — the accuracy cost is measured, not
assumed (the CPU trainer keeps reading full-precision features from host
memory, matching the mechanism). ``tests/integration`` and
``benchmarks/bench_extension_quantization.py`` quantify both sides of
the trade.

The wire form is :mod:`repro.kernels`' one quantizer: ``"fp16"``
ships IEEE halves, ``"int8"`` per-row symmetric linear codes (each row
ships one fp32 scale beside its payload), and decoding restores the
input's own float dtype; ``"fp32"`` has no wire form. Because the
quantization depends only on the row, every plane encodes its store
into wire form once (:func:`repro.kernels.encode`) and its accelerator
loads gather the codes and decode them
(:func:`repro.kernels.gather_wire`, :func:`repro.kernels.decode`); on
the process planes the parent encodes and the shared segment carries
the table to the workers. The split transfer stage
(:meth:`repro.runtime.stage_pipeline.StagePipeline.transfer`), which
the bench replay times, encodes and decodes the batch the gather stage
just produced. Both are bit-identical to the reference oracle's round
trip (``docs/kernels.md`` documents the contract).
"""

from __future__ import annotations

import numpy as np

from .. import kernels
from .stage_pipeline import dequantize

#: Bytes per feature element on the PCIe link, per precision mode
#: (re-exported from :mod:`repro.kernels`, the single ground truth).
TRANSFER_BYTES = kernels.TRANSFER_BYTES


def quantization_rmse(x: np.ndarray, mode: str) -> float:
    """Root-mean-square quantization error of the wire round trip
    (diagnostics/benches)."""
    if mode == "fp32":
        return 0.0
    x = np.asarray(x, dtype=np.float64)
    err = dequantize(kernels.encode(x, mode)) - x
    return float(np.sqrt(np.mean(err * err)))
