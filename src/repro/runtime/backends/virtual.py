"""Virtual-time execution backend (the paper's modelled-hardware plane).

``virtual`` is the thread-less preset of the in-process driver
(:class:`~.pipelined.InProcessBackend` with the
:class:`~.pipelined.InlineFeed`), accounting *virtual*
(modelled-hardware) time for every pipeline stage:

* ``run`` (and the inherited ``run_epoch``) — *functional* training
  over the session's work source on the caller's thread: real
  sampling, real forward/backward, each batch trained before the next
  one loads, and every iteration ended by the shared synchronize tail,
  with stage times derived from the realized batch statistics.
* :meth:`VirtualTimeBackend.simulate_epoch` — *timing-only* simulation,
  optionally at the full paper dataset scale (projected batch statistics
  with measured per-batch jitter). This is what the figure benches
  sweep; it includes the effects the analytic model omits (kernel-launch
  overheads, pipeline fill/flush, per-batch workload variation, DRM
  transients) — the paper's predicted-vs-actual gap (Fig. 8) arises
  here.

Both return a :class:`~.report.RunReport`; its ``virtual_time_s`` is
the modelled makespan.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigError
from .pipelined import InlineFeed, InProcessBackend
from .report import RunReport


class VirtualTimeBackend(InProcessBackend):
    """Sequential execution with virtual-time accounting."""

    name = "virtual"
    feed = InlineFeed

    def __init__(self, session) -> None:
        """No knobs: the inline feed has no window to size and no
        handoff to watch."""
        super().__init__(session)

    def train(self, epochs: int | None = None,
              max_iterations: int | None = None) -> list[RunReport]:
        """Run several functional epochs."""
        n = epochs if epochs is not None else self.session.train_cfg.epochs
        return [self.run_epoch(max_iterations) for _ in range(n)]

    # ------------------------------------------------------------------
    # Timing-only simulation
    # ------------------------------------------------------------------
    def simulate_epoch(self, full_scale: bool | None = None,
                       iterations: int | None = None,
                       jitter: bool = True) -> RunReport:
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

        report = RunReport(iterations=0)
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
