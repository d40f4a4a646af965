"""The realized stage seconds of one iteration.

Every trained batch's :class:`~repro.runtime.backends.report.Reply`
carries the wall seconds its trainer spent per raw stage
(``sample``/``load``/``train``). The synchronize tail folds them onto
the canonical stage keys here (:func:`fold_worker_realized`, keyed by
:func:`stage_key` — the same rule that bills
``report.stage_seconds``), and a live plane's timing step reads the
fold as its clock.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

#: Canonical realized-stage keys, aligned with ``StageTimes.as_dict``
#: minus ``transfer``: every load folds the transfer policy into
#: ``load`` and no plane has a PCIe link to time, so ``t_transfer``
#: keeps its modelled value.
REALIZED_STAGES = ("sample_cpu", "sample_accel", "load",
                   "train_cpu", "train_accel", "sync")

#: StageTimes field backing each canonical stage key.
FIELD_BY_STAGE = {
    "sample_cpu": "t_sample_cpu",
    "sample_accel": "t_sample_accel",
    "load": "t_load",
    "train_cpu": "t_train_cpu",
    "train_accel": "t_train_accel",
    "sync": "t_sync",
}


def stage_key(kind: str, raw: str) -> str | None:
    """The canonical stage a ``kind`` (``"cpu"``/``"accel"``) trainer's
    raw stage ``raw`` bills to: sampling and training split into the
    ``_cpu``/``_accel`` columns and ``load`` is kind-agnostic.
    ``None`` for anything else — dropped, never invented."""
    if raw == "load":
        return "load"
    if raw in ("sample", "train"):
        return f"{raw}_{'cpu' if kind == 'cpu' else 'accel'}"
    return None


def _lane_finish_times(seconds: Iterable[float],
                      lanes: int) -> list[float]:
    """When each item finishes on ``lanes`` lanes that take items in
    order, each taken by the first free lane (the lowest-numbered on a
    tie) and run for its ``seconds``."""
    free = [0.0] * lanes
    finish = []
    for s in seconds:
        k = free.index(min(free))
        free[k] += s
        finish.append(free[k])
    return finish


def fold_worker_realized(per_trainer: Iterable[tuple[str, Mapping]],
                         sync_s: float | None = None,
                         lanes: int | None = None) -> dict[str, float]:
    """Fold per-trainer raw stage durations into canonical stage keys.

    ``per_trainer`` yields ``(kind, stage_s)`` pairs in trainer order,
    where ``kind`` is the trainer's ``"cpu"``/``"accel"`` and
    ``stage_s`` maps raw stage names to measured seconds (keyed by
    :func:`stage_key`; an idle trainer's map is empty). Reductions
    mirror the analytic model's: CPU-side work is summed (the model's
    CPU terms aggregate over the whole CPU side), accelerator-side work
    is maxed (Eq. 8/9 take the slowest accelerator), ``load`` is summed
    across all trainers (host-DDR bandwidth is shared), and ``sync`` is
    the caller-measured all-reduce duration. Keys never observed stay
    absent, and a live timing step keeps their modelled times.

    ``lanes`` is how many training lanes the trainers shared. With
    ``1 < lanes < trainers`` the trainers did not all train at the
    same time, so what live DRM must balance is the **lane
    makespan**: each trainer's ``load`` + ``train`` seconds are packed
    onto the lanes by their own take rule (trainer order, first free
    lane — :func:`_lane_finish_times`), and ``train_cpu`` /
    ``train_accel`` become the time the kind's last batch finished on
    its lane, so two accelerator batches that share a lane bill their
    sum. With no ``lanes``, one lane (every split runs in turn, there
    is nothing to balance) or ``lanes >= trainers`` the fold is the
    per-trainer one above, bit for bit.
    """
    per_trainer = list(per_trainer)
    realized: dict[str, float] = {}
    for kind, stage_s in per_trainer:
        for raw in stage_s:
            key = stage_key(kind, raw)
            v = _seconds(stage_s, raw)
            if key is None or v is None:
                continue
            if kind == "cpu" or key == "load":
                realized[key] = realized.get(key, 0.0) + v
            else:
                realized[key] = max(realized.get(key, 0.0), v)
    if lanes is not None and 1 < lanes < len(per_trainer):
        spans = [sum(_seconds(stage_s, raw) or 0.0
                     for raw in ("load", "train"))
                 for _, stage_s in per_trainer]
        finish: dict[str, float] = {}
        for (kind, stage_s), end in zip(
                per_trainer, _lane_finish_times(spans, lanes)):
            if _seconds(stage_s, "train") is not None:
                key = stage_key(kind, "train")
                finish[key] = max(finish.get(key, 0.0), end)
        realized.update(finish)
    if sync_s is not None and math.isfinite(sync_s) and sync_s >= 0.0:
        realized["sync"] = float(sync_s)
    return realized


def _seconds(stage_s: Mapping, raw: str) -> float | None:
    """``stage_s[raw]`` as seconds, or ``None`` when absent, non-finite
    or negative — dropped, never invented."""
    v = float(stage_s.get(raw, math.nan))
    return v if math.isfinite(v) and v >= 0.0 else None
