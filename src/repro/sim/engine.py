"""Pipeline schedule simulator.

Models the four-stage HyScale-GNN iteration pipeline (Sampling → Feature
Loading → Data Transfer → GNN Propagation, paper Fig. 7) as a linear
pipeline with:

* **resource serialization** — a stage processes one iteration at a time;
* **data dependencies** — iteration ``i`` of stage ``k`` needs iteration
  ``i`` of stage ``k-1``;
* **bounded prefetch buffers** — stage ``k`` may run at most ``depth``
  iterations ahead of stage ``k+1`` (the two-stage feature prefetch keeps
  ``depth`` mini-batches in flight, paper §IV-B);
* **serialized mode** — with prefetching disabled, iteration ``i`` cannot
  begin any stage until iteration ``i-1`` fully completes (the ablation
  baseline of Fig. 11).

The recurrence is solved directly (no event queue needed for a linear
pipeline), which keeps epoch-scale simulations O(iterations × stages).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import SimulationError
from .trace import Span, Timeline


class PipelineSimulator:
    """Solve the pipeline schedule for given per-iteration durations.

    Parameters
    ----------
    stage_names:
        Pipeline stages in order.
    prefetch_depth:
        Max iterations a stage may run ahead of its successor. ``0``
        disables pipelining entirely (strict serialization).
    """

    def __init__(self, stage_names: Sequence[str],
                 prefetch_depth: int = 2) -> None:
        if not stage_names:
            raise SimulationError("need at least one stage")
        if prefetch_depth < 0:
            raise SimulationError("prefetch_depth must be >= 0")
        self.stage_names = list(stage_names)
        self.prefetch_depth = prefetch_depth

    def run(self, durations: Sequence[Sequence[float]]) -> Timeline:
        """Schedule ``durations[i][k]`` = duration of stage k, iteration i.

        Returns a :class:`Timeline` with one span per (iteration, stage).
        """
        n_iter = len(durations)
        n_stage = len(self.stage_names)
        if n_iter == 0:
            return Timeline()
        dur = np.asarray(durations, dtype=np.float64)
        if dur.shape != (n_iter, n_stage):
            raise SimulationError(
                f"durations must be ({n_iter}, {n_stage}), got {dur.shape}")
        if (dur < 0).any():
            raise SimulationError("durations must be non-negative")

        start = np.zeros((n_iter, n_stage))
        finish = np.zeros((n_iter, n_stage))
        depth = self.prefetch_depth
        for i in range(n_iter):
            for k in range(n_stage):
                t = 0.0
                if k > 0:
                    t = max(t, finish[i, k - 1])       # data dependency
                if i > 0:
                    t = max(t, finish[i - 1, k])       # stage busy
                if depth == 0:
                    # Serialized: wait for the previous iteration to fully
                    # drain before iteration i touches any stage.
                    if i > 0:
                        t = max(t, finish[i - 1, n_stage - 1])
                else:
                    # Bounded look-ahead: stage k may not start iteration
                    # i before its successor has begun iteration i-depth.
                    if k < n_stage - 1 and i - depth >= 0:
                        t = max(t, start[i - depth, k + 1])
                start[i, k] = t
                finish[i, k] = t + dur[i, k]

        timeline = Timeline()
        for i in range(n_iter):
            for k in range(n_stage):
                timeline.add(Span(stage=self.stage_names[k], iteration=i,
                                  start=float(start[i, k]),
                                  end=float(finish[i, k])))
        return timeline

    def makespan(self, durations: Sequence[Sequence[float]]) -> float:
        """Total time to drain the pipeline (epoch time contribution)."""
        return self.run(durations).makespan
