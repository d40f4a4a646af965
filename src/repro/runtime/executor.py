"""Live multi-threaded executor facade (paper §VI-B, Listing 1).

:class:`ThreadedExecutor` is a thin facade over the shared runtime core:
a :class:`~repro.runtime.core.TrainingSession` executed by the
:class:`~repro.runtime.backends.ThreadedBackend` (real Python threads
with the paper's pthread-style condition-variable handshakes).

Because execution now rides the shared core, the threaded plane supports
everything the virtual-time plane does: pass ``platform`` (and a
``sys_cfg``) to run the hybrid CPU+accelerator split, DRM re-balancing
and quantized PCIe transfer on live threads — configurations that were
previously expressible only in :class:`~repro.runtime.hybrid.HyScaleGNN`.
Without a platform the executor keeps its historical shape: ``num_trainers``
replicas fed by one producer thread, functional training only.

Epoch semantics follow the shared :class:`~repro.runtime.core.BatchPlan`:
each epoch is one permutation of the train set consumed cursor-wise
(matching ``HyScaleGNN.train_epoch``), rolling into a fresh permutation
when ``run(iterations)`` spans epochs — the historical executor drew
i.i.d. batches every iteration and never covered the train set.
"""

from __future__ import annotations

from ..config import SystemConfig, TrainingConfig
from ..errors import ProtocolError
from ..graph.datasets import GraphDataset
from ..hw.topology import PlatformSpec
from .backends.report import RunReport
from .backends.threaded import ThreadedBackend
from .core import TrainingSession

__all__ = ["ThreadedExecutor"]


class ThreadedExecutor:
    """Run hybrid synchronous-SGD training on real threads.

    Parameters
    ----------
    dataset / train_cfg:
        Workload description; all trainers share one sampler stream.
    num_trainers:
        Trainer thread count for platform-less sessions (the modelled
        CPU + accelerators; placement does not matter functionally).
        Ignored when ``platform`` is given — the trainer set then comes
        from the platform (CPU trainer when hybrid + one per
        accelerator).
    prefetch_depth:
        Mini-batches of look-ahead per trainer. When an explicit
        ``sys_cfg`` is passed its ``prefetch_depth`` governs both the
        live buffers and the modelled pipeline (one depth for both
        planes); this argument then has no effect.
    timeout_s:
        Watchdog for every blocking wait — a protocol deadlock fails fast
        instead of hanging the suite.
    sys_cfg:
        System feature flags. Defaults to hybrid trainers with DRM off
        and full-precision transfer (the historical executor semantics).
    platform:
        Optional node description; enables the timing plane (stage
        times, DRM, workload split) on the threaded run.
    profile_probes:
        Sampling-profile probes for platform sessions (must match the
        virtual-plane system for cross-backend reproducibility).
    """

    def __init__(self, dataset: GraphDataset, train_cfg: TrainingConfig,
                 num_trainers: int = 3, prefetch_depth: int = 2,
                 timeout_s: float = 60.0,
                 sys_cfg: SystemConfig | None = None,
                 platform: PlatformSpec | None = None,
                 profile_probes: int = 6) -> None:
        if num_trainers < 1:
            raise ProtocolError("need at least one trainer")
        if sys_cfg is None:
            sys_cfg = SystemConfig(hybrid=True, drm=False, prefetch=True,
                                   prefetch_depth=prefetch_depth)
        self.session = TrainingSession(
            dataset, train_cfg, sys_cfg, platform,
            num_trainers=num_trainers, profile_probes=profile_probes)
        # One depth for both planes: the live buffers and the modelled
        # pipeline must agree, so an explicit sys_cfg's prefetch_depth
        # wins over the convenience argument.
        depth = sys_cfg.prefetch_depth
        self.backend = ThreadedBackend(self.session,
                                       prefetch_depth=depth,
                                       timeout_s=timeout_s)
        self.prefetch_depth = depth
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    # Session delegation (the public surface predating the core split)
    # ------------------------------------------------------------------
    @property
    def dataset(self) -> GraphDataset:
        return self.session.dataset

    @property
    def train_cfg(self) -> TrainingConfig:
        return self.session.train_cfg

    @property
    def num_trainers(self) -> int:
        return self.session.num_trainers

    @property
    def sampler(self):
        return self.session.sampler

    @property
    def trainers(self):
        return self.session.trainers

    @property
    def synchronizer(self):
        return self.session.synchronizer

    @property
    def optimizers(self):
        return self.session.optimizers

    @property
    def split(self):
        return self.session.split

    @split.setter
    def split(self, value) -> None:
        self.session.split = value

    @property
    def drm(self):
        return self.session.drm

    # ------------------------------------------------------------------
    def run(self, iterations: int) -> RunReport:
        """Execute ``iterations`` synchronized iterations."""
        return self.backend.run(iterations)

    def run_epoch(self, max_iterations: int | None = None
                  ) -> RunReport:
        """Execute one epoch over the shared batch plan."""
        return self.backend.run_epoch(max_iterations)
