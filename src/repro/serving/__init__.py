"""The online serving plane: micro-batched low-latency inference.

Training answers "how fast can one epoch go"; this package answers the
*other* operational question the paper's shared stack raises: how well
does the same sampler → gather → quantize → kernel pipeline serve an
unbounded stream of small inference requests under a latency budget?
(HyScale-GNN's host-side stack is oblivious to whether the consumer of
a prepared batch trains or infers — the session redesign in
:mod:`repro.runtime.stage_pipeline` makes that literal.)

The pieces, front to back:

* :mod:`~repro.serving.requests` — the typed request/response/shed
  surface;
* :mod:`~repro.serving.admission` — per-tenant credit buckets (every
  refusal happens in the front door, before any stage work);
* :mod:`~repro.serving.microbatch` — size-flushed coalescing into
  :class:`MicroBatch` work items, sealed early by an idle executor and
  at the latest by the coalesce deadline; its ``pending_requests`` is
  the session's one pending ledger, bounded by
  ``max_pending_requests``;
* :mod:`~repro.serving.session` — :class:`ServingSession`, composing
  the shared :class:`~repro.runtime.stage_pipeline.StagePipeline`,
  the model and session-scoped stats handles; each ``step`` executes
  up to ``max_depth`` micro-batches;
* :mod:`~repro.serving.loadgen` — the open-loop generator
  (``benchmarks/bench_serving.py`` wraps it).

``docs/serving.md`` is the user guide.
"""

from .admission import CreditScheduler
from .clock import VirtualClock
from .loadgen import LoadgenResult, LoadSpec, run_open_loop
from .microbatch import MicroBatch, MicroBatcher
from .requests import (
    SHED_REASONS,
    InferenceRequest,
    InferenceResponse,
    ShedResponse,
)
from .session import ServingConfig, ServingReport, ServingSession

__all__ = [
    "SHED_REASONS",
    "InferenceRequest",
    "InferenceResponse",
    "ShedResponse",
    "MicroBatch",
    "MicroBatcher",
    "CreditScheduler",
    "ServingConfig",
    "ServingReport",
    "ServingSession",
    "LoadSpec",
    "LoadgenResult",
    "VirtualClock",
    "run_open_loop",
]
