"""Feedback-driven resource control: the realized-stage fold.

:func:`fold_worker_realized` (``realized.py``) folds the realized
stage seconds every trained batch's reply carries onto the canonical
:data:`REALIZED_STAGES` keys. That fold is a live preset's clock: the
overlapped backends (``pipelined``, ``process_pipelined``) declare
``drm_reads_clock``, and their timing step then records the realized
stage times and steers DRM by trials on them. The planes that do not
declare it take the analytic step — the strict ones' conformance
contract is bit-parity with the analytic reference.
``docs/architecture.md`` carries the subsystem diagram;
``docs/backends.md`` the wire-protocol contract.
"""

from .realized import (
    FIELD_BY_STAGE,
    REALIZED_STAGES,
    fold_worker_realized,
    stage_key,
)

__all__ = [
    "FIELD_BY_STAGE",
    "REALIZED_STAGES",
    "fold_worker_realized",
    "stage_key",
]
