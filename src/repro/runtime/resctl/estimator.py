"""Online model calibration (resctl stage 1 of 2).

The :class:`~repro.perfmodel.model.PerformanceModel` predicts stage
times from batch statistics and platform constants; on a live plane
the realized wall times are the authoritative signal: every trained
batch's :class:`~repro.runtime.backends.report.Reply` carries the wall
seconds its trainer spent per raw stage (``sample``/``load``/
``train``), and the synchronize tail folds them onto the
canonical stage keys here (:func:`fold_worker_realized`, keyed by
:func:`stage_key` — the same rule that bills ``report.stage_seconds``).

The :class:`OnlineEstimator` closes the gap with one **multiplicative
correction factor per stage**: every observation pairs a realized
duration with the analytic prediction for the same iteration, the
estimator maintains EWMAs of both sides, and the correction is their
ratio — **confidence-weighted** so a handful of noisy samples cannot
yank the model around, and **falling back to the analytic model until
warm** (below ``warmup`` observations a stage's correction is exactly
1.0, so a cold estimator is a no-op by construction).

:meth:`calibrate` maps modelled :class:`StageTimes` to calibrated
ones field by field; stages never observed stay analytic. The result
is guaranteed finite and non-negative whatever the observations were
(property-tested) — a calibration subsystem that can emit ``nan`` into
``drm_step`` would be worse than no calibration at all.

The overlapped backends feed calibrated times into ``drm_step``.
Because a cold estimator is exactly the identity, one that never warms
(``warmup`` above the run's iteration count) observes — reports still
expose the model-vs-realized error — while reproducing the
uncalibrated trajectories bit for bit.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Mapping

from ...errors import ProtocolError
from ...perfmodel.model import StageTimes

#: Canonical realized-stage keys, aligned with ``StageTimes.as_dict``
#: minus ``transfer``: every load folds the transfer policy into
#: ``load`` and no plane has a PCIe link to time, so ``t_transfer``
#: stays analytic.
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
    absent — the estimator treats absent stages as "still analytic".

    ``lanes`` is how many training lanes the trainers shared. With
    ``1 < lanes < trainers`` the trainers did not all train at the
    same time, so what calibrated DRM must balance is the **lane
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


class OnlineEstimator:
    """Per-stage multiplicative calibration of the analytic model.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor for the realized/modelled accumulators.
    warmup:
        Observations a stage needs before its correction deviates from
        1.0 (the analytic-model fallback), and the half-life of the
        confidence weight beyond it.
    ratio_bounds:
        Hard clamp on the correction factor — wall clocks and the
        modelled hardware live on very different absolute scales, so
        the bounds are wide; they exist to keep a denormal or an
        outlier from producing a non-finite calibrated time.
    """

    def __init__(self, alpha: float = 0.3, warmup: int = 3,
                 ratio_bounds: tuple[float, float] = (1e-9, 1e9)
                 ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ProtocolError("estimator alpha must be in (0, 1]")
        if warmup < 1:
            raise ProtocolError("estimator warmup must be >= 1")
        lo, hi = ratio_bounds
        if not (0.0 < lo < hi and math.isfinite(hi)):
            raise ProtocolError(
                "ratio bounds must satisfy 0 < lo < hi < inf")
        self.alpha = alpha
        self.warmup = warmup
        self.ratio_bounds = (float(lo), float(hi))
        self._lock = threading.Lock()
        self._count: dict[str, int] = {}
        self._realized_ewma: dict[str, float] = {}
        self._model_ewma: dict[str, float] = {}

    # ------------------------------------------------------------------
    def observe(self, realized: Mapping[str, float],
                model: StageTimes) -> None:
        """Pair one iteration's realized stage map with its analytic
        prediction. Invalid samples (non-finite, negative, or a stage
        the model predicts as zero-time) are skipped — they carry no
        calibratable ratio."""
        for stage, value in realized.items():
            field = FIELD_BY_STAGE.get(stage)
            if field is None:
                continue
            r = float(value)
            m = float(getattr(model, field))
            if not math.isfinite(r) or r <= 0.0:
                continue
            if not math.isfinite(m) or m <= 0.0:
                continue
            with self._lock:
                self._count[stage] = self._count.get(stage, 0) + 1
                prev_r = self._realized_ewma.get(stage)
                prev_m = self._model_ewma.get(stage)
                self._realized_ewma[stage] = r if prev_r is None else \
                    self.alpha * r + (1.0 - self.alpha) * prev_r
                self._model_ewma[stage] = m if prev_m is None else \
                    self.alpha * m + (1.0 - self.alpha) * prev_m

    # ------------------------------------------------------------------
    def observations(self, stage: str) -> int:
        with self._lock:
            return self._count.get(stage, 0)

    def is_warm(self, stage: str | None = None) -> bool:
        """Whether ``stage`` (or, with ``None``, any stage) has enough
        observations to deviate from the analytic model."""
        with self._lock:
            if stage is not None:
                return self._count.get(stage, 0) >= self.warmup
            return any(c >= self.warmup for c in self._count.values())

    def settle_readings(self, share: float) -> int:
        """Observations after which a step change in a stage's realized
        times has moved its EWMA by all but ``share`` of the step — and
        never fewer than ``warmup``."""
        if self.alpha >= 1.0:
            return self.warmup
        return max(self.warmup, math.ceil(
            math.log(share) / math.log(1.0 - self.alpha)))

    def correction(self, stage: str) -> float:
        """The stage's confidence-weighted multiplicative correction.

        ``realized_ewma / model_ewma``, clamped to ``ratio_bounds``,
        blended toward 1.0 by the confidence weight
        ``n / (n + warmup)`` — and exactly 1.0 below ``warmup``
        observations (the analytic fallback)."""
        with self._lock:
            n = self._count.get(stage, 0)
            if n < self.warmup:
                return 1.0
            r = self._realized_ewma[stage]
            m = self._model_ewma[stage]
        lo, hi = self.ratio_bounds
        ratio = min(hi, max(lo, r / m)) if m > 0.0 else 1.0
        if not math.isfinite(ratio):
            return 1.0
        confidence = n / (n + self.warmup)
        corrected = 1.0 + confidence * (ratio - 1.0)
        return corrected if math.isfinite(corrected) and \
            corrected > 0.0 else 1.0

    def calibrate(self, times: StageTimes) -> StageTimes:
        """Calibrated copy of modelled ``times``: each field scaled by
        its stage's correction. Unobserved (or cold) stages pass
        through analytically; every output field is finite and
        non-negative no matter what was observed."""
        updates: dict[str, float] = {}
        for stage, field in FIELD_BY_STAGE.items():
            value = float(getattr(times, field))
            c = self.correction(stage)
            if c == 1.0:
                continue
            scaled = value * c
            if not math.isfinite(scaled) or scaled < 0.0:
                # Defensive: a pathological model value times a large
                # correction must degrade to the analytic value, never
                # poison DRM with nan/inf.
                scaled = value if math.isfinite(value) and \
                    value >= 0.0 else 0.0
            updates[field] = scaled
        return times.with_updates(**updates) if updates else times

    # ------------------------------------------------------------------
    def calibration_error(self) -> dict[str, float]:
        """Per-stage relative model-vs-realized error
        ``|model - realized| / realized`` over the EWMAs, for every
        stage with at least one paired observation."""
        out: dict[str, float] = {}
        with self._lock:
            for stage in self._count:
                r = self._realized_ewma.get(stage)
                m = self._model_ewma.get(stage)
                if r is None or m is None or r <= 0.0:
                    continue
                out[stage] = abs(m - r) / r
        return out

    def summary(self) -> dict[str, dict]:
        """Per-stage calibration digest for reports and benches:
        ``{stage: {correction, error, observations, warm,
        realized_ewma_s, model_ewma_s}}``."""
        errors = self.calibration_error()
        out: dict[str, dict] = {}
        with self._lock:
            stages = sorted(
                self._count,
                key=lambda s: (REALIZED_STAGES.index(s)
                               if s in REALIZED_STAGES else
                               len(REALIZED_STAGES), s))
            snapshot = [(s, self._count[s],
                         self._realized_ewma.get(s, 0.0),
                         self._model_ewma.get(s, 0.0))
                        for s in stages]
        for stage, n, r_ewma, m_ewma in snapshot:
            out[stage] = {
                "correction": self.correction(stage),
                "error": errors.get(stage, 0.0),
                "observations": n,
                "warm": n >= self.warmup,
                "realized_ewma_s": r_ewma,
                "model_ewma_s": m_ewma,
            }
        return out


def summarize_calibration(calibration: Mapping[str, Mapping]) -> str:
    """One-line per-stage model-vs-realized error report — the single
    formatter behind the wall-clock bench's ``calib`` column. Shows
    warm stages' relative error (``xN`` factors beyond 10x so wildly
    mis-scaled models stay readable); ``"-"`` when nothing is warm
    (functional sessions, cold estimators)."""
    parts = []
    for stage, digest in calibration.items():
        if not digest.get("warm"):
            continue
        err = float(digest.get("error", 0.0))
        parts.append(f"{stage}:{err:.0%}" if err < 10.0
                     else f"{stage}:x{err:.0f}")
    return " ".join(parts) if parts else "-"
