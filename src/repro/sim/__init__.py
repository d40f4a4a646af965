"""Discrete-event pipeline simulation and timeline tracing.

The runtime computes per-stage durations for every iteration from the
*realized* mini-batches (via the :mod:`repro.hw` cost models) and feeds
them to :class:`PipelineSimulator`, which resolves resource serialization,
data dependencies, and prefetch-buffer capacity into a schedule — virtual
start/finish times per (iteration, stage). The paper's "actual" timings
(Fig. 8) come from this simulator; its "predicted" timings come from the
closed-form model in :mod:`repro.perfmodel`, so the predicted-vs-actual
gap arises the same way it does in the paper (launch overheads, pipeline
fill/flush, per-batch workload variation).
"""

from .engine import PipelineSimulator
from .trace import Span, Timeline, render_gantt

__all__ = [
    "PipelineSimulator",
    "Span",
    "Timeline",
    "render_gantt",
]
