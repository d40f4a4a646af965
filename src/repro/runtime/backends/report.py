"""The records a run produces: one :class:`Reply` per trained batch,
one report per run.

:class:`RunReport` is the one report of every backend, ``virtual``
included, and also ``simulate_epoch``'s (which fills only the
timing-plane fields): the core fields every run fills (losses, wall
time, protocol log, timing-plane bookkeeping, kernel counters), plus
*sections* only some planes own. Two kinds of section, with
deliberately different defaults:

* **coverage evidence** — ``trained_targets``, ``worker_targets``,
  ``shard_parts`` — defaults to ``None`` and is populated only by the
  planes that produce it. The conformance kit and ``bench_e2e`` both
  read these as *present iff not None*: an empty list on a plane that
  never records targets would read as "trained 0 targets".
* **accounting** — ``kernel_stats``, ``stage_seconds``,
  ``stage_stats``, ``lookahead_history``,
  ``dealt_sizes``, ``shard_io``, ``calibration`` — defaults to an empty
  container ("this layer does not exist here").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...perfmodel.model import StageTimes, WorkloadSplit
from ...sampling.base import MiniBatchStats
from ...sim.trace import Timeline
from ..protocol import ProtocolLog
from ..resctl import stage_key


@dataclass
class Reply:
    """One trained batch: a trainer's answer to the synchronize tail
    (:meth:`~.base.ExecutionBackend.end_iteration`). On the process
    planes it also crosses the pipe, worker → parent
    (``("result", it, Reply)``), sent only after the batch's flat
    gradient is in the worker's row of the store's gradient slab — the
    reply itself is scalars and ids.

    ``stats`` is the batch's statistics, from whoever sampled it. A
    worker also sets ``echoed``, the batch's realized target ids
    (``V^L`` of the locally sampled graph), so the parent records what
    the worker *actually trained*, not what it was asked to.
    ``shard_io`` is the shard-aware replica's local/remote row record.
    """

    loss: float
    accuracy: float
    stage_s: dict[str, float]
    stats: MiniBatchStats
    echoed: np.ndarray | None = None
    shard_io: dict | None = None


@dataclass(frozen=True)
class StageStats:
    """Occupancy accounting of one pipeline stage's buffers, aggregated
    across trainers (the per-stage overlap report)."""

    stage: str
    items: int               # total items that passed through
    high_water: int          # max occupancy seen on any trainer's buffer
    mean_occupancy: float    # mean over buffers of sampled occupancy


def fold_stage_stats(stage: str,
                     entries: list[tuple[int, int, float]]
                     ) -> StageStats:
    """Aggregate per-buffer ``(items, high_water, mean_occupancy)``
    entries into one stage's :class:`StageStats` (items summed,
    high-water maxed, occupancy averaged).

    An empty ``entries`` list (a worker whose shard was empty, a stage
    no buffer ever carried) folds to a zeroed record rather than
    tripping ``max()``/``np.mean`` on an empty sequence."""
    if not entries:
        return StageStats(stage=stage, items=0, high_water=0,
                          mean_occupancy=0.0)
    return StageStats(
        stage=stage,
        items=sum(e[0] for e in entries),
        high_water=max(e[1] for e in entries),
        mean_occupancy=float(np.mean([e[2] for e in entries])))


@dataclass
class RunReport:
    """Outcome of one run of any backend.

    ``wall_time_s`` is real elapsed *training* time; on the process
    planes it is clocked from the ``init`` broadcast to the last
    synchronized iteration, so it excludes ``startup_time_s`` (spawn
    and the shared-memory copy on a backend's first run, the
    parameter broadcast alone on every later one — the pool is reused)
    and the worker snapshot round trip. ``virtual_time_s`` is the
    modelled makespan when the session carries a timing plane.
    """

    iterations: int
    num_workers: int = 0
    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    wall_time_s: float = 0.0
    startup_time_s: float = 0.0
    protocol_log: ProtocolLog = field(default_factory=ProtocolLog)
    replicas_consistent: bool = False
    stage_history: list[StageTimes] = field(default_factory=list)
    split_history: list[WorkloadSplit] = field(default_factory=list)
    total_edges: float = 0.0
    virtual_time_s: float = 0.0
    timeline: Timeline = field(default_factory=Timeline)
    prefetch_high_water: int = 0

    # -- coverage evidence: None unless the plane produces it ----------
    #: Per-dispatch target-id slices in dispatch order (the
    #: statistical planes, whose coverage the kit cannot read off a
    #: bit-identical trajectory).
    trained_targets: list[np.ndarray] | None = None
    #: ``worker_targets[k]`` — the target ids worker ``k`` *echoed*
    #: back for the batches it actually sampled and trained (not a copy
    #: of the parent's dispatch bookkeeping).
    worker_targets: list[list[np.ndarray]] | None = None
    #: The partition map a partition-mapped run trained under.
    shard_parts: np.ndarray | None = None

    # -- accounting: empty where the layer does not exist --------------
    #: Kernel-traffic counter delta of this run (summed over workers on
    #: the process planes).
    kernel_stats: dict[str, int] = field(default_factory=dict)
    #: Realized per-batch stage seconds summed over the run's trained
    #: batches, ``{canonical_stage: (count, total_s)}`` — billed by the
    #: synchronize tail from each reply (:meth:`add_stage_seconds`).
    stage_seconds: dict[str, tuple[int, float]] = field(
        default_factory=dict)
    #: Per-stage buffer occupancy of the threaded in-process planes.
    stage_stats: dict[str, StageStats] = field(default_factory=dict)
    #: ``(in_flight, depth)`` at each retirement — the bounded-window
    #: audit trail.
    lookahead_history: list[tuple[int, int]] = \
        field(default_factory=list)
    #: Per-trainer batch sizes of each iteration *as dealt* (these lag
    #: DRM adjustments by the look-ahead window).
    dealt_sizes: list[tuple[int, ...]] = field(default_factory=list)
    #: Per-stage model-vs-realized calibration digest of the run's
    #: :class:`~repro.runtime.resctl.OnlineEstimator`.
    calibration: dict[str, dict] = field(default_factory=dict)
    #: One ``{iteration, worker, local_rows, remote_rows, cache_hits,
    #: local_bytes, remote_bytes}`` record per partition-mapped
    #: minibatch; run totals land in ``kernel_stats`` independently.
    shard_io: list[dict] = field(default_factory=list)

    def add_stage_seconds(self, kind: str,
                          stage_s: dict[str, float]) -> None:
        """Bill one trained batch's raw stage seconds (its
        :attr:`Reply.stage_s`, from a ``kind`` trainer) to
        :attr:`stage_seconds` under the canonical keys
        (:func:`~repro.runtime.resctl.stage_key`): one count and its
        seconds per stage the batch passed through."""
        for raw, seconds in stage_s.items():
            key = stage_key(kind, raw)
            if key is not None:
                count, total = self.stage_seconds.get(key, (0, 0.0))
                self.stage_seconds[key] = (count + 1, total + seconds)

    def fold_buffers(self, per_buffer: list[dict[str, tuple]]) -> None:
        """Fold every feed buffer's ``{stage: (items, high_water,
        mean_occupancy)}`` accounting into ``stage_stats`` — one
        ``train`` buffer per trainer on the threaded in-process planes,
        none on ``virtual`` or the process planes."""
        if not per_buffer:
            return
        for stage in per_buffer[0]:
            self.stage_stats[stage] = fold_stage_stats(
                stage, [b[stage] for b in per_buffer])
        self.prefetch_high_water = max(
            st.high_water for st in self.stage_stats.values())

    def close_timeline(self, session, rows: list[list[float]]) -> None:
        """Resolve the recorded duration rows into the modelled
        timeline (timing-plane sessions)."""
        if session.has_timing and rows:
            self.timeline = session.make_pipeline().run(rows)
            self.virtual_time_s = self.timeline.makespan

    @property
    def local_gather_bytes(self) -> int:
        return int(self.kernel_stats.get("shard_local_bytes", 0))

    @property
    def remote_gather_bytes(self) -> int:
        return int(self.kernel_stats.get("shard_remote_bytes", 0))

    @property
    def remote_cache_hit_rate(self) -> float:
        hits = self.kernel_stats.get("remote_cache_hits", 0)
        misses = self.kernel_stats.get("remote_cache_misses", 0)
        total = hits + misses
        return hits / total if total else 0.0
