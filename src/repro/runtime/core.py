"""Shared runtime core: one training protocol, pluggable execution.

The paper describes a single training *protocol* (Fig. 5 / Listing 1)
realized on heterogeneous executors. This module is that protocol's
backend-independent half:

* :class:`TrainingSession` owns **construction** — dataset, one sampler
  per trainer (via the registry in :mod:`repro.sampling`; trainer ``t``
  draws from stream ``t`` on every plane), one model replica per trainer,
  the :class:`~repro.runtime.synchronizer.GradientSynchronizer`,
  optimizers, the performance model, the DRM engine, and the transfer
  quantization policy — all derived from
  :class:`~repro.config.TrainingConfig` / :class:`~repro.config.SystemConfig`.
* :class:`BatchPlan` encodes the per-trainer quota / permutation-cursor
  logic exactly once: every epoch shuffles the train set, and every
  iteration slices per-trainer target batches off the cursor according to
  the *current* workload split (so DRM re-balancing takes effect on the
  next iteration, identically in every backend).
* An :class:`~repro.runtime.backends.ExecutionBackend` consumes the plan
  and the session: the virtual-time backend resolves the iteration loop
  sequentially with modelled-hardware timing, the live backends run it
  on threads or worker processes — on the strict planes with the same
  batches, same gradients, same DRM trajectory, bit-identical losses.

A session built *with* a :class:`~repro.hw.topology.PlatformSpec` carries
the full timing plane (perf model, workload split, DRM); a session built
without one (``platform=None``) is functional-only: ``num_trainers``
replicas, each fed by its own sampler stream.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..config import SystemConfig, TrainingConfig, layer_dims
from ..errors import ConfigError, ProtocolError
from ..graph.datasets import GraphDataset
from ..hw.topology import PlatformSpec
from ..nn.models import build_model
from ..nn.optim import SGD
from ..perfmodel.mapping import initial_mapping
from ..perfmodel.model import (
    PerformanceModel,
    StageTimes,
    WorkloadSplit,
)
from ..perfmodel.sampling_profile import (
    SamplingProfile,
    project_full_scale_stats,
)
from ..sampling import build_sampler, trainer_sampler
from ..sampling.base import MiniBatch, MiniBatchStats
from ..sim.engine import PipelineSimulator
from .drm import DRMEngine
from .quantize import TRANSFER_BYTES
from .stage_pipeline import StagePipeline, WorkSource
from .synchronizer import GradientSynchronizer
from .trainer import TrainerNode

#: The four pipeline stages of one iteration (paper Fig. 5).
PIPELINE_STAGES = ("sample", "load", "transfer", "propagate")


# ---------------------------------------------------------------------------
# Batch planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlannedIteration:
    """One iteration's per-trainer target assignment.

    ``assignments[i]`` is the slice of the epoch permutation trainer ``i``
    trains this iteration, or ``None`` when the trainer sits idle (zero
    quota, or the permutation cursor ran out — the tail iteration of an
    epoch). Trainer order matches ``TrainingSession.trainers``.
    """

    epoch: int
    index: int                                    # iteration within epoch
    assignments: tuple[np.ndarray | None, ...]

    @property
    def batch_sizes(self) -> tuple[int, ...]:
        return tuple(0 if a is None else int(a.size)
                     for a in self.assignments)

    @property
    def total_targets(self) -> int:
        return sum(self.batch_sizes)


class BatchPlan:
    """The epoch iterator: quota slicing over a per-epoch permutation.

    This is the single implementation of the cursor logic both execution
    backends share (previously duplicated — and, on the threaded plane,
    replaced by i.i.d. redraws that never covered the train set).

    Parameters
    ----------
    train_ids:
        Global ids eligible as batch targets.
    counts_fn:
        Zero-arg callable returning the current per-trainer quotas in
        trainer order. Read *once per iteration* so DRM moves apply from
        the next iteration on.
    rng:
        Generator for the per-epoch shuffles. Shared with the owning
        session so epoch permutations consume the same stream in every
        backend.
    """

    def __init__(self, train_ids: np.ndarray,
                 counts_fn: Callable[[], list[int]],
                 rng: np.random.Generator) -> None:
        train_ids = np.asarray(train_ids, dtype=np.int64)
        if train_ids.size == 0:
            raise ConfigError("batch plan needs a non-empty train set")
        self.train_ids = train_ids
        self.counts_fn = counts_fn
        self.rng = rng
        self.epochs_started = 0

    def start_epoch(self) -> Iterator[PlannedIteration]:
        """Yield one epoch of :class:`PlannedIteration` objects.

        The permutation is drawn eagerly (advancing the shared RNG once
        per epoch); iterations are yielded lazily so a backend can stop
        early (``max_iterations``) without consuming the rest.
        """
        epoch = self.epochs_started
        self.epochs_started += 1
        perm = self.rng.permutation(self.train_ids)
        return self._iterate(epoch, perm)

    def iterate(self, iterations: int
                ) -> Iterator[tuple[int, PlannedIteration]]:
        """Yield ``(global_iteration, planned)`` for exactly
        ``iterations`` synchronized iterations.

        Rolls into a fresh epoch permutation whenever the cursor is
        exhausted, so long runs still visit every train vertex once per
        epoch. This is the single epoch-rolling loop every backend
        drives (the virtual plane, the in-process feed thread, the
        process-pool parent) and every other work source inherits
        (:class:`~repro.runtime.backends.sharded.ShardPlan` overrides
        only :meth:`start_epoch`) — the numbering, the roll-over point,
        and the no-progress guard can never drift between planes.

        Raises
        ------
        ProtocolError
            If an epoch yields no work (all quotas zero) — the run
            cannot make progress.
        """
        produced = 0
        while produced < iterations:
            before = produced
            for planned in self.start_epoch():
                yield produced, planned
                produced += 1
                if produced >= iterations:
                    return
            if produced == before:
                raise ProtocolError(
                    "batch plan yielded no work for an epoch")

    def _iterate(self, epoch: int,
                 perm: np.ndarray) -> Iterator[PlannedIteration]:
        cursor = 0
        index = 0
        while cursor < perm.size:
            counts = list(self.counts_fn())
            assignments: list[np.ndarray | None] = []
            for want in counts:
                take = min(max(0, int(want)), perm.size - cursor)
                if take <= 0:
                    assignments.append(None)
                    continue
                assignments.append(perm[cursor:cursor + take])
                cursor += take
            if all(a is None for a in assignments):
                return    # zero total quota: nobody can make progress
            yield PlannedIteration(epoch=epoch, index=index,
                                   assignments=tuple(assignments))
            index += 1


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------

class TrainingSession:
    """Everything one training run owns, independent of how it executes.

    Parameters
    ----------
    dataset / train_cfg / sys_cfg:
        Workload, algorithm parameters, and system feature flags.
    platform:
        Node description. When given, the session carries the full timing
        plane (sampling profile, performance model, compile-time workload
        split, DRM) and derives its trainer set from the platform (CPU
        trainer when hybrid + one per accelerator). When ``None`` the
        session is functional-only and ``num_trainers`` replicas are
        built with a uniform per-trainer quota.
    full_scale:
        Project batch statistics to the paper-scale dataset (timing plane
        only; functional training always runs on the scaled graph).
    profile_probes:
        Batches sampled to build the sampling profile (platform sessions).
    num_trainers:
        Trainer count for ``platform=None`` sessions (ignored otherwise).
    sampler_rate_per_thread / fpga_n_pes / fpga_m_macs:
        Performance-model calibration knobs (see
        :class:`~repro.perfmodel.model.PerformanceModel`).
    """

    def __init__(self, dataset: GraphDataset, train_cfg: TrainingConfig,
                 sys_cfg: SystemConfig | None = None,
                 platform: PlatformSpec | None = None, *,
                 full_scale: bool = False,
                 profile_probes: int = 6,
                 num_trainers: int = 3,
                 sampler_rate_per_thread: float | None = None,
                 fpga_n_pes: int = 8, fpga_m_macs: int = 2048) -> None:
        self.dataset = dataset
        self.platform = platform
        self.train_cfg = train_cfg
        self.sys_cfg = sys_cfg if sys_cfg is not None else SystemConfig()
        self.full_scale = full_scale
        if platform is not None and platform.num_accelerators == 0 \
                and not self.sys_cfg.hybrid:
            raise ConfigError("no accelerators and no CPU trainer")
        if platform is None and num_trainers < 1:
            raise ConfigError("need at least one trainer")
        if platform is None and self.sys_cfg.drm:
            raise ConfigError(
                "DRM requires a platform: without the timing plane "
                "there are no stage times to balance "
                "(pass platform=..., or sys_cfg with drm=False)")

        self.dims = layer_dims(dataset.spec.feature_dim,
                               train_cfg.hidden_dim,
                               dataset.spec.num_classes,
                               train_cfg.num_layers)
        self.degrees = dataset.graph.out_degrees

        # ---- timing plane (platform sessions only) ----
        self.profile: SamplingProfile | None = None
        self.perfmodel: PerformanceModel | None = None
        if platform is not None:
            # The profile draws from a sampler of its own, so no
            # trainer's stream starts advanced.
            measured = SamplingProfile.measure(
                build_sampler(train_cfg.sampler, dataset.graph,
                              dataset.train_ids, train_cfg,
                              dataset.spec.feature_dim),
                train_cfg.minibatch_size,
                num_probes=profile_probes, seed=train_cfg.seed + 1)
            if full_scale:
                # Replace the measured means with the full-graph
                # projection, keeping measured relative jitter.
                self.profile = SamplingProfile(
                    base_minibatch_size=train_cfg.minibatch_size,
                    mean_stats=project_full_scale_stats(
                        dataset.graph, dataset.spec, train_cfg.fanouts,
                        train_cfg.minibatch_size),
                    rel_std=measured.rel_std)
            else:
                self.profile = measured
            pm_kwargs = {}
            if sampler_rate_per_thread is not None:
                pm_kwargs["sampler_rate_per_thread"] = \
                    sampler_rate_per_thread
            self.perfmodel = PerformanceModel(
                platform, self.dims, train_cfg.model, self.profile,
                transfer_elem_bytes=TRANSFER_BYTES[
                    self.sys_cfg.transfer_precision],
                fpga_n_pes=fpga_n_pes, fpga_m_macs=fpga_m_macs,
                **pm_kwargs)

        # ---- compile-time coarse mapping (paper §IV-A) ----
        self.split = self._initial_split(num_trainers)
        self.initial_split = self.split

        # ---- trainers + synchronizer + optimizers ----
        self.trainers = self._build_trainers(num_trainers)
        self.synchronizer = GradientSynchronizer(
            [t.model for t in self.trainers])
        self.optimizers = [SGD(t.model, lr=train_cfg.learning_rate)
                           for t in self.trainers]
        #: One sampler per trainer, in trainer order (pluggable via the
        #: registry): trainer ``t`` samples from stream ``t`` on every
        #: plane, and a process plane carries each stream's position to
        #: its worker and back, so every run continues where the last
        #: one, on any plane, stopped.
        self.samplers = [
            trainer_sampler(dataset.graph, dataset.train_ids, train_cfg,
                            dataset.spec.feature_dim, t)
            for t in range(self.num_trainers)]

        self.drm = DRMEngine(self.sys_cfg, train_cfg.minibatch_size,
                             hybrid=self.sys_cfg.hybrid,
                             pipelined=self.sys_cfg.prefetch) \
            if self.sys_cfg.drm else None
        self.rng = np.random.default_rng(train_cfg.seed + 2)
        # The plan reads quotas through a weak method, so session →
        # plan → session is no cycle: a dropped session is freed at
        # once, not at the cyclic collector's next pass.
        counts = weakref.WeakMethod(self.split_target_counts)
        self.plan = BatchPlan(dataset.train_ids, lambda: counts()(),
                              self.rng)
        # The shared per-item producer chain (sample → gather →
        # transfer) both session kinds compose; the stage hooks below
        # delegate to it, and the serving plane builds its own over the
        # same stack. Its sample stage is trainer 0's stream.
        # Accelerator loads decode from the store's wire table, encoded
        # once on the first of them (a process plane's pool asks for it
        # first and copies it into the shared segment).
        self.pipeline = StagePipeline(
            self.samplers[0], dataset.features, dataset.labels,
            self.sys_cfg.transfer_precision)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _initial_split(self, num_trainers: int) -> WorkloadSplit:
        cfg = self.train_cfg
        if self.platform is None:
            # Historical executor quota: every trainer gets an equal
            # slice, capped so small train sets still feed every trainer.
            n = num_trainers
            mb = max(8, min(cfg.minibatch_size,
                            self.dataset.train_ids.size // n or 8))
            if self.sys_cfg.hybrid:
                return WorkloadSplit(cpu_targets=mb,
                                     accel_targets=(mb,) * (n - 1))
            return WorkloadSplit(cpu_targets=0,
                                 accel_targets=(mb,) * n,
                                 train_threads=0)
        if self.sys_cfg.hybrid:
            return initial_mapping(
                self.perfmodel, cfg.minibatch_size,
                hybrid=True, pipelined=self.sys_cfg.prefetch,
                coarse=True).split
        n = self.platform.num_accelerators
        return WorkloadSplit(
            cpu_targets=0,
            accel_targets=(cfg.minibatch_size,) * n,
            sample_threads=128, load_threads=64, train_threads=0)

    def _build_trainers(self, num_trainers: int) -> list[TrainerNode]:
        cfg = self.train_cfg
        trainers: list[TrainerNode] = []
        if self.platform is not None:
            if self.sys_cfg.hybrid:
                trainers.append(TrainerNode(
                    "cpu", "cpu",
                    build_model(cfg.model, self.dims, cfg.seed),
                    self.dims, cfg.model))
            for i in range(self.platform.num_accelerators):
                trainers.append(TrainerNode(
                    f"accel{i}", "accel",
                    build_model(cfg.model, self.dims, cfg.seed),
                    self.dims, cfg.model))
            return trainers
        for i in range(num_trainers):
            kind = "cpu" if (i == 0 and self.sys_cfg.hybrid) else "accel"
            trainers.append(TrainerNode(
                f"trainer{i}", kind,
                build_model(cfg.model, self.dims, cfg.seed),
                self.dims, cfg.model))
        return trainers

    # ------------------------------------------------------------------
    # Plan / split
    # ------------------------------------------------------------------
    @property
    def num_trainers(self) -> int:
        return len(self.trainers)

    @property
    def has_timing(self) -> bool:
        """Does this session carry the modelled-hardware timing plane?"""
        return self.perfmodel is not None

    def split_target_counts(self) -> list[int]:
        """Per-trainer target quota in trainer order."""
        counts = []
        if self.sys_cfg.hybrid:
            counts.append(self.split.cpu_targets)
        counts.extend(self.split.accel_targets)
        return counts

    def iterations_per_epoch(self) -> int:
        """Iterations one epoch takes (total quota is DRM-invariant)."""
        total = self.split.total_targets
        if total <= 0:
            raise ConfigError("split trains no targets")
        return -(-int(self.dataset.train_ids.size) // total)

    @property
    def work_source(self) -> WorkSource:
        """The numbered work-item stream backends drain
        (:class:`~repro.runtime.stage_pipeline.WorkSource`): for a
        training session, the :class:`BatchPlan`; the sharded plane
        substitutes its own :class:`~repro.runtime.backends.sharded.ShardPlan`
        behind the same protocol."""
        return self.plan

    # ------------------------------------------------------------------
    # Pipeline-stage hooks (shared hot path)
    #
    # One method per Fig.-5 producer stage, so a caller can time
    # sample / gather / transfer apart while executing the exact same
    # bits as ``load_features`` (decoded from the store's wire table
    # when lossy; the training lanes' int8 codes times their row
    # scales equal it bit for bit). All delegate to the
    # composed :class:`~repro.runtime.stage_pipeline.StagePipeline` —
    # the extraction the serving plane shares.
    # ------------------------------------------------------------------
    def sample_stage(self, targets: np.ndarray) -> MiniBatch:
        """Sample one mini-batch from trainer 0's stream, the
        pipeline's (not thread-safe: every plane samples a stream from
        one thread)."""
        return self.pipeline.sample(targets)

    def gather_stage(self, mb: MiniBatch) -> np.ndarray:
        """Feature-gather (load) stage: host-DDR row gather into a fresh
        array of the store's dtype."""
        return self.pipeline.gather(mb)

    def transfer_stage(self, x0: np.ndarray,
                       trainer_kind: str) -> np.ndarray:
        """Transfer stage: the PCIe quantization policy for this link —
        the wire round trip into a fresh array for an accelerator under
        a lossy policy, else ``x0`` itself."""
        return self.pipeline.transfer(x0, trainer_kind)

    def load_features(self, mb: MiniBatch, trainer_kind: str) -> np.ndarray:
        """Gather one mini-batch's input features, dequantized.

        Delegates to :meth:`StagePipeline.load`. An accelerator batch
        under a lossy policy decodes from the session's wire table,
        bit-identical to gather then transfer. The training lanes load
        through ``pipeline.load_codes`` instead, whose int8 codes times
        their row scales equal this, bit for bit.
        """
        return self.pipeline.load(mb, trainer_kind)

    def labels_for(self, mb: MiniBatch) -> np.ndarray:
        return self.dataset.labels[mb.targets]

    def shared_sampler_spec(self):
        """Picklable spec a worker rebuilds this session's sampler from.

        The spec travels in the :class:`~repro.runtime.shm.SharedStoreManifest`
        of a process plane; worker ``t`` rebuilds trainer ``t``'s sampler
        from it (:func:`repro.sampling.build_worker_sampler`) and
        continues :attr:`samplers` ``[t]``'s stream, so the parent deals
        only target-id shards of the :class:`BatchPlan` and the sample
        stage runs on every worker's cores in parallel.
        """
        from .shm import SharedSamplerSpec
        return SharedSamplerSpec(train_cfg=self.train_cfg,
                                 feature_dim=self.dataset.spec.feature_dim)

    def reduce_and_step(self, batch_sizes: list[int],
                        iteration: int | None = None) -> np.ndarray:
        """Synchronize one iteration: all-reduce then step every
        optimizer (idle trainers receive the averaged gradients too,
        keeping replicas consistent). Returns the averaged flat
        gradient, exactly as :class:`GradientSynchronizer` does.

        The replay hook for code that walks the plan by hand through
        the stage hooks; a backend ends its iterations in
        :meth:`~repro.runtime.backends.base.ExecutionBackend.end_iteration`
        instead, which also records Listing 1's handshake."""
        avg = self.synchronizer.all_reduce(list(batch_sizes), iteration)
        for opt in self.optimizers:
            opt.step()
        return avg

    # ------------------------------------------------------------------
    # Timing plane helpers (platform sessions)
    # ------------------------------------------------------------------
    def _require_timing(self) -> None:
        if not self.has_timing:
            raise ConfigError(
                "timing plane unavailable: session built without a "
                "platform")

    def stage_times(self, stats_cpu: MiniBatchStats | None,
                    stats_accel: list[MiniBatchStats | None]
                    ) -> StageTimes:
        self._require_timing()
        return self.perfmodel.stage_times(self.split, stats_cpu,
                                          stats_accel)

    def launch_overhead_s(self) -> float:
        """Per-iteration accelerator launch cost (simulated-actual only)."""
        accel = self.platform.accelerator
        if accel is None or self.platform.num_accelerators == 0:
            return 0.0
        if accel.kind == "fpga":
            launches = 2
        else:
            launches = 6 * self.train_cfg.num_layers * 2
        return launches * accel.kernel_launch_s

    def duration_row(self, times: StageTimes) -> list[float]:
        """Pipeline-stage durations including the 'actual' extras the
        analytic model omits (paper §VI-C): kernel-launch latency and
        pipeline-flush overhead on the accelerator pass, plus PCIe
        duplex contention between prefetch pushes and gradient pulls.

        The duplex derate models link contention that exists only when
        the next iteration's feature push overlaps this iteration's
        gradient pull, so it is priced exactly under two-stage
        prefetch (``sys_cfg.prefetch``) — the setting that opens every
        plane's look-ahead window.
        """
        self._require_timing()
        accel = self.platform.accelerator
        flush = accel.pipeline_flush_frac if accel is not None else 0.0
        prop = (times.t_train_accel * (1.0 + flush)
                if times.t_train_accel > 0 else 0.0)
        prop = max(prop, times.t_train_cpu) + times.t_sync
        transfer = times.t_transfer
        if self.sys_cfg.prefetch and transfer > 0:
            transfer *= 1.0 + self.platform.pcie.duplex_derate
        return [times.t_sample, times.t_load, transfer,
                prop + self.launch_overhead_s()]

    def drm_step(self, times: StageTimes, iteration: int,
                 **trial) -> None:
        """One Algorithm-1 adjustment; affects the next planned iteration
        (``trial``: :meth:`~repro.runtime.drm.DRMEngine.adjust`'s
        ``settle`` and ``realized_s``)."""
        if self.drm is not None:
            self.split = self.drm.adjust(self.split, times, iteration,
                                         **trial)

    def timing_step(self, stats_cpu: MiniBatchStats | None,
                    stats_accel: list[MiniBatchStats | None],
                    iteration: int, *,
                    estimator=None,
                    realized: dict[str, float] | None = None
                    ) -> tuple[StageTimes, list[float], WorkloadSplit]:
        """One timing-plane step over realized batch statistics.

        Returns ``(times, duration_row, split)`` where ``split`` is the
        workload split that was *in effect* for this iteration (captured
        before the DRM adjustment mutates it), then applies the
        Algorithm-1 adjustment. Every backend records its stage/split
        history through this single hook, so the bookkeeping order —
        stage times from iteration ``i``'s stats, split snapshot, *then*
        DRM — can never drift between execution planes.

        ``estimator`` (an :class:`~repro.runtime.resctl.OnlineEstimator`,
        which a calibrating backend passes) observes this iteration's
        ``realized`` wall times (the replies' stage seconds on
        canonical stage keys, folded by
        :func:`~repro.runtime.resctl.fold_worker_realized`) against the
        modelled ones, and the returned/recorded times are its
        calibrated copy — so the duration row and the DRM adjustment
        both steer from measured wall times — and, once it is warm,
        each DRM move is a trial judged on realized seconds
        (:meth:`_trial`). A cold estimator calibrates to the identity
        and takes no trial, and planes that pass none stay
        bit-identical to the uncalibrated contract.
        """
        times = self.stage_times(stats_cpu, stats_accel)
        trial = {}
        if estimator is not None:
            # A live plane runs no thread pools and samples on the
            # host, so the model it calibrates prices the split's
            # quotas only, on the initial threads (one CPU trainer
            # thread at least): a thread or sampling-share move must
            # not move times that no wall clock sees.
            start = self.initial_split
            modelled = self.perfmodel.stage_times(
                start.with_updates(
                    cpu_targets=self.split.cpu_targets,
                    accel_targets=self.split.accel_targets,
                    train_threads=max(1, start.train_threads)),
                stats_cpu, stats_accel)
            if realized:
                estimator.observe(realized, modelled)
            if estimator.is_warm():
                times = estimator.calibrate(modelled)
                if self.drm is not None:
                    trial = self._trial(estimator, realized or {})
        row = self.duration_row(times)
        split = self.split
        self.drm_step(times, iteration, **trial)
        return times, row, split

    def _trial(self, estimator, realized: dict[str, float]) -> dict:
        """A calibrated DRM step's trial terms: the readings a split
        needs before the engine acts — its batches reach the consumer
        up to a look-ahead window after the move, then the estimator
        re-learns their times to within the revert tolerance — and the
        iteration's realized training seconds (Eq. 9 on wall clocks:
        the slower trainer side, then the all-reduce)."""
        cfg = self.sys_cfg
        lag = cfg.prefetch_depth - 1 if cfg.prefetch else 0
        train = max(realized.get("train_cpu", 0.0),
                    realized.get("train_accel", 0.0))
        return {"settle": lag + estimator.settle_readings(
                    self.drm.revert_tolerance),
                "realized_s": train + realized.get("sync", 0.0)
                if realized else None}

    def make_pipeline(self) -> PipelineSimulator:
        depth = self.sys_cfg.prefetch_depth if self.sys_cfg.prefetch \
            else 0
        return PipelineSimulator(PIPELINE_STAGES, prefetch_depth=depth)

    # ------------------------------------------------------------------
    def predicted_epoch_time(self, full_scale: bool | None = None
                             ) -> float:
        """Closed-form prediction (paper Eq. 6 steady state) — the
        'predicted' series of Fig. 8, no launch/fill/jitter effects."""
        self._require_timing()
        if full_scale is None:
            full_scale = self.full_scale
        base = self.train_cfg.minibatch_size
        base_stats = self.profile.expected_stats(base)
        train_count = self.dataset.spec.train_count if full_scale \
            else int(self.dataset.train_ids.size)
        split = self.split
        counts = self.split_target_counts()
        stats_cpu = None
        stats_accel: list[MiniBatchStats | None] = []
        for trainer, want in zip(self.trainers, counts):
            st = base_stats.scaled(want / base) if want > 0 else None
            if trainer.kind == "cpu":
                stats_cpu = st
            else:
                stats_accel.append(st)
        times = self.perfmodel.stage_times(split, stats_cpu, stats_accel)
        t_iter = times.iteration_time(pipelined=self.sys_cfg.prefetch)
        iters = max(1, -(-train_count // max(1, split.total_targets)))
        return iters * t_iter
