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

The round trip is :func:`repro.kernels.quantize`: ``"fp32"`` is the
identity, ``"fp16"`` an IEEE-half round trip, ``"int8"`` per-row
symmetric linear quantization (each row ships one fp32 scale beside its
payload), always in the input's own float dtype. The transfer stage
(:meth:`repro.runtime.stage_pipeline.StagePipeline.transfer`) runs it in
place on the rows the gather stage just produced; that is the path of
the bench replay, the process-plane workers and the sharded resolver. Because the
quantization depends only on the row, an in-process session instead
encodes its store into wire form once (:func:`repro.kernels.encode`)
and its accelerator loads gather the codes and decode them
(:func:`repro.kernels.gather_wire`, :func:`repro.kernels.decode`).
Both are bit-identical to the reference oracle (``docs/kernels.md``
documents the contract).
"""

from __future__ import annotations

import numpy as np

from .. import kernels

#: Bytes per feature element on the PCIe link, per precision mode
#: (re-exported from :mod:`repro.kernels`, the single ground truth).
TRANSFER_BYTES = kernels.TRANSFER_BYTES


def quantization_rmse(x: np.ndarray, mode: str) -> float:
    """Root-mean-square quantization error (diagnostics/benches)."""
    x = np.asarray(x, dtype=np.float64)
    err = kernels.quantize(x, mode) - x
    return float(np.sqrt(np.mean(err * err)))
