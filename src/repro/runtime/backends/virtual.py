"""Virtual-time execution backend (the paper's modelled-hardware plane).

Resolves the training protocol sequentially in one thread while
accounting *virtual* (modelled-hardware) time for every pipeline stage:

* :meth:`VirtualTimeBackend.run` (and the inherited ``run_epoch``) —
  *functional* training over the session's work source: real sampling,
  real forward/backward, and every iteration ended by the shared
  synchronize tail (real all-reduce, Listing 1 recorded in the report's
  ``protocol_log``), with stage times derived from the realized batch
  statistics.
* :meth:`VirtualTimeBackend.simulate_epoch` — *timing-only* simulation,
  optionally at the full paper dataset scale (projected batch statistics
  with measured per-batch jitter). This is what the figure benches
  sweep; it includes the effects the analytic model omits (kernel-launch
  overheads, pipeline fill/flush, per-batch workload variation, DRM
  transients) — the paper's predicted-vs-actual gap (Fig. 8) arises
  here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...errors import ConfigError, ProtocolError
from ...kernels import BufferPool, scoped_counters
from ...perfmodel.model import StageTimes, WorkloadSplit
from ...sim.trace import Timeline
from ..protocol import ProtocolLog
from .base import ExecutionBackend
from .report import Reply


@dataclass
class EpochReport:
    """Everything one epoch produced.

    ``epoch_time_s`` is *virtual* (modelled-hardware) time; functional
    quality metrics and the ``protocol_log`` are populated only by
    functional training. ``kernel_stats`` (functional epochs only) is
    the epoch's delta of the backend's session-scoped kernel-traffic
    counters (``backend.counters``, fed via
    :func:`repro.kernels.scoped_counters`).
    """

    mode: str                                  # "functional" | "simulated"
    iterations: int
    epoch_time_s: float = 0.0
    timeline: Timeline = field(default_factory=Timeline)
    stage_history: list[StageTimes] = field(default_factory=list)
    split_history: list[WorkloadSplit] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    total_edges: float = 0.0
    kernel_stats: dict[str, int] = field(default_factory=dict)
    protocol_log: ProtocolLog = field(default_factory=ProtocolLog)

    @property
    def mean_loss(self) -> float:
        return float(np.mean(self.losses)) if self.losses else float("nan")

    @property
    def throughput_mteps(self) -> float:
        """Eq. 5 over the whole epoch."""
        if self.epoch_time_s <= 0:
            return 0.0
        return self.total_edges / self.epoch_time_s / 1e6

    def bottleneck_stage(self) -> str | None:
        """Dominant pipeline stage over the epoch."""
        return self.timeline.bottleneck_stage()

    def close_timeline(self, session, rows: list[list[float]]) -> None:
        """Resolve the recorded duration rows into the modelled
        timeline and its makespan (timing-plane sessions)."""
        if session.has_timing:
            self.timeline = session.make_pipeline().run(rows)
            self.epoch_time_s = self.timeline.makespan


class VirtualTimeBackend(ExecutionBackend):
    """Sequential execution with virtual-time accounting."""

    name = "virtual"

    # ------------------------------------------------------------------
    # Functional training
    # ------------------------------------------------------------------
    def run(self, iterations: int) -> EpochReport:
        """``iterations`` iterations of real training with virtual-time
        accounting, in one thread.

        Every trainer with a non-zero quota samples a real batch, loads
        real features and computes real gradients, in trainer order;
        then :meth:`end_iteration` synchronizes and takes the
        timing/DRM step over the realized batch statistics, before the
        plan slices the next iteration.
        """
        if iterations < 1:
            raise ProtocolError("iterations must be >= 1")
        s = self.session
        report = EpochReport(mode="functional", iterations=iterations)
        rows: list[list[float]] = []
        # Sequential resolution trains each batch to completion before
        # loading the next, so feature loads can reuse one pooled
        # buffer set: the gather/quantize hot path stops allocating
        # after the largest batch has been seen.
        pool = BufferPool()
        # This run's kernel traffic lands in the session-scoped handle,
        # so the report counts only this backend's dispatches even
        # under concurrent co-tenants.
        counters_before = self.counters.snapshot()
        with scoped_counters(self.counters):
            for it, planned in s.work_source.iterate(iterations):
                answers: list[Reply | None] = []
                for trainer, targets in zip(s.trainers,
                                            planned.assignments):
                    if targets is None:
                        answers.append(None)
                        continue
                    mb = s.sampler.sample(targets)
                    x0 = s.load_features(mb, trainer.kind, pool=pool)
                    rep = trainer.train_minibatch(
                        mb, x0, s.labels_for(mb), s.degrees)
                    answers.append(Reply(rep.loss, rep.accuracy, {},
                                         mb.stats()))
                self.end_iteration(it, planned.batch_sizes, answers,
                                   report, rows)
        report.kernel_stats = self.counters.delta(counters_before)
        report.close_timeline(s, rows)
        return report

    def train(self, epochs: int | None = None,
              max_iterations: int | None = None) -> list[EpochReport]:
        """Run several functional epochs."""
        n = epochs if epochs is not None else self.session.train_cfg.epochs
        return [self.run_epoch(max_iterations) for _ in range(n)]

    # ------------------------------------------------------------------
    # Timing-only simulation
    # ------------------------------------------------------------------
    def simulate_epoch(self, full_scale: bool | None = None,
                       iterations: int | None = None,
                       jitter: bool = True) -> EpochReport:
        """Simulate one epoch's timing without functional training.

        Parameters
        ----------
        full_scale:
            Use the paper-scale train-set size for the iteration count
            (defaults to the session's construction-time setting; batch
            statistics always come from the session's profile, which is
            projection-based iff the session was built full-scale).
        iterations:
            Override the iteration count (e.g. short sweeps).
        jitter:
            Apply the measured per-batch size variation so iterations
            are not identical (stragglers + DRM noise — part of the
            predicted-vs-actual gap).
        """
        s = self.session
        s._require_timing()
        if full_scale is None:
            full_scale = s.full_scale
        base = s.train_cfg.minibatch_size
        base_stats = s.profile.expected_stats(base)
        if full_scale:
            train_count = s.dataset.spec.train_count
        else:
            train_count = int(s.dataset.train_ids.size)

        report = EpochReport(mode="simulated", iterations=0)
        rows: list[list[float]] = []
        remaining = train_count
        it = 0
        while remaining > 0:
            if iterations is not None and it >= iterations:
                break
            counts = s.split_target_counts()
            total = sum(counts)
            if total <= 0:
                raise ConfigError("split trains no targets")
            take_total = min(total, remaining)
            frac = take_total / total

            stats = []
            for k in range(s.num_trainers):
                want = counts[k] if k < len(counts) else 0
                eff = int(round(want * frac))
                # Independent per-trainer batch-size variation: the
                # iteration barrier waits for the straggler, part of
                # the predicted-vs-actual gap (paper Fig. 5 barriers).
                scale_j = 1.0
                if jitter and s.profile.rel_std > 0:
                    scale_j = float(np.exp(s.rng.normal(
                        0.0, s.profile.rel_std)))
                st = base_stats.scaled(scale_j * eff / base) \
                    if eff > 0 else None
                stats.append(st)
                if st is not None:
                    report.total_edges += st.total_edges
            remaining -= take_total

            self.record_timing(report, rows, stats, it)
            it += 1

        report.iterations = it
        report.close_timeline(s, rows)
        return report
