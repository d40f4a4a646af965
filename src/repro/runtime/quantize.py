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

The numeric work dispatches through :func:`repro.kernels.quantize`,
which runs the int8 round trip in the input's own dtype with a single
destination buffer and in-place round/clip/rescale (no int8
temporaries), and the accelerator gather+transfer chokepoint
(:func:`repro.runtime.core.gather_batch_features`) fuses the two stages:
it gathers into the destination in the feature store's dtype and
quantizes there in place. Both are bit-identical to the reference
oracle (``docs/kernels.md`` documents the contract).
"""

from __future__ import annotations

import numpy as np

from .. import kernels

#: Bytes per feature element on the PCIe link, per precision mode
#: (re-exported from :mod:`repro.kernels`, the single ground truth).
TRANSFER_BYTES = kernels.TRANSFER_BYTES


def quantize_dequantize(x: np.ndarray, mode: str) -> np.ndarray:
    """Round-trip ``x`` through the transfer precision.

    Parameters
    ----------
    x:
        ``(rows, features)`` float array (any float dtype).
    mode:
        ``"fp32"`` (identity), ``"fp16"`` (IEEE half round-trip), or
        ``"int8"`` (per-row symmetric linear quantization — each feature
        row carries its own scale, as a real implementation would ship
        one fp32 scale per row alongside the payload).

    Returns an array of ``x``'s own float dtype with the quantization
    error applied — a float32 batch comes back float32 (dtype
    inflation here used to double every downstream trainer's memory
    traffic).
    """
    return kernels.quantize(x, mode)


def quantization_rmse(x: np.ndarray, mode: str) -> float:
    """Root-mean-square quantization error (diagnostics/benches)."""
    x = np.asarray(x, dtype=np.float64)
    err = quantize_dequantize(x, mode) - x
    return float(np.sqrt(np.mean(err * err)))
