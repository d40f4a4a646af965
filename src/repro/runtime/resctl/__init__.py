"""Feedback-driven resource control: online calibration.

The runtime's timing plane predicts; this package *corrects*:
:class:`OnlineEstimator` (``estimator.py``) keeps per-stage
multiplicative correction factors calibrating the
:class:`~repro.perfmodel.model.PerformanceModel` against the realized
stage seconds every trained batch's reply carries (folded onto the
canonical :data:`REALIZED_STAGES` keys by
:func:`fold_worker_realized`), confidence-weighted and falling back
to the analytic model until warm.

The overlapped backends (``pipelined``, ``process_pipelined``) each own
one estimator (``backend.estimator``), which every timing step
observes and calibrates through, so ``drm_step`` steers from calibrated
times. The planes without one never calibrate — the strict ones'
conformance contract is bit-parity with the analytic reference.
``docs/architecture.md`` carries the subsystem diagram;
``docs/backends.md`` the wire-protocol contract.
"""

from .estimator import (
    FIELD_BY_STAGE,
    REALIZED_STAGES,
    OnlineEstimator,
    fold_worker_realized,
    stage_key,
)

__all__ = [
    "FIELD_BY_STAGE",
    "OnlineEstimator",
    "REALIZED_STAGES",
    "fold_worker_realized",
    "stage_key",
]
