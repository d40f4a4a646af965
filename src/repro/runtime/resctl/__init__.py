"""Feedback-driven resource control: monitor → estimator → allocator.

The runtime's timing plane predicts; this package *measures, corrects,
and arbitrates*:

* :class:`StageMonitor` (``monitor.py``) — bounded ring buffers of
  realized per-stage wall times sampled from the live planes
  (the in-process driver's consumer, once per iteration from the
  feed's per-item stage times; process-plane workers via their replies
  and snapshot), with EWMA and percentile summaries;
* :class:`OnlineEstimator` (``estimator.py``) — per-stage
  multiplicative correction factors calibrating the
  :class:`~repro.perfmodel.model.PerformanceModel` against realized
  :class:`~repro.perfmodel.model.StageTimes`, confidence-weighted and
  falling back to the analytic model until warm;
* :class:`NodeAllocator` (``allocator.py``) — a node-level look-ahead
  depth budget arbitrated across concurrent
  :class:`~repro.runtime.core.TrainingSession` runs, released as
  sessions finish.

The overlapped backends (``pipelined``, ``process_pipelined``) wire all
three together through one
:class:`~repro.runtime.backends.overlap.DepthPolicy`, whose estimator
every timing step observes and calibrates through, so
``adaptive_depth`` and ``drm_step`` steer from calibrated times. The
lock-step planes feed the monitor (observability) but never
calibrate — their conformance contract is bit-parity with the
analytic reference. ``docs/architecture.md`` carries the subsystem
diagram; ``docs/backends.md`` the wire-protocol contract.
"""

from .allocator import (
    DEFAULT_ALLOCATOR,
    DEFAULT_DEPTH_BUDGET,
    DepthGrant,
    NodeAllocator,
)
from .estimator import (
    FIELD_BY_STAGE,
    OnlineEstimator,
    summarize_calibration,
)
from .monitor import (
    REALIZED_STAGES,
    StageMonitor,
    StageSummary,
    fold_worker_realized,
    map_worker_totals,
)

__all__ = [
    "DEFAULT_ALLOCATOR",
    "DEFAULT_DEPTH_BUDGET",
    "DepthGrant",
    "NodeAllocator",
    "FIELD_BY_STAGE",
    "OnlineEstimator",
    "summarize_calibration",
    "REALIZED_STAGES",
    "StageMonitor",
    "StageSummary",
    "fold_worker_realized",
    "map_worker_totals",
]
