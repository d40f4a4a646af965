"""The multi-GPU PyTorch-Geometric baseline (paper Fig. 10 "Multi-GPU").

Per the paper (§VI-E1) the baseline runs on the *same* CPU-GPU node as
HyScale-GNN but (a) uses the CPU only for sampling and feature loading,
(b) executes the per-iteration stages back-to-back (PyG's NeighborLoader
loop: sample → gather → H2D copy → train), and (c) pays PyG's
torch-sparse sampler and dataloader-worker throughput rather than a
native pthread sampler.

Implemented as a thin configuration of a
:class:`~repro.runtime.TrainingSession` executed by the
:class:`~repro.runtime.VirtualTimeBackend` — the same machinery as
HyScale-GNN with hybrid/DRM/prefetch disabled and PyG-calibrated
software rates — so that every Fig. 10 speedup is an apples-to-apples
comparison of *system design*, exactly the paper's framing.
"""

from __future__ import annotations

from ..config import SystemConfig, TrainingConfig
from ..graph.datasets import GraphDataset
from ..hw.topology import PlatformSpec, hyscale_cpu_gpu_platform
from ..perfmodel.sampling_profile import (
    PYG_SAMPLE_RATE_EDGES_PER_S_PER_THREAD,
)
from ..runtime import RunReport, TrainingSession, VirtualTimeBackend
from .common import BaselineReport

#: PyG NeighborLoader worker processes (typical tuned setting) — far
#: fewer than the 256 hardware threads HyScale's native sampler uses.
PYG_SAMPLER_WORKERS = 24
PYG_LOADER_WORKERS = 24


class PyGMultiGPUBaseline:
    """Serialized accelerator-only training with PyG software rates."""

    name = "PyG multi-GPU"

    def __init__(self, dataset: GraphDataset, train_cfg: TrainingConfig,
                 platform: PlatformSpec | None = None,
                 full_scale: bool = True,
                 profile_probes: int = 3) -> None:
        self.dataset = dataset
        self.train_cfg = train_cfg
        self.platform = platform if platform is not None \
            else hyscale_cpu_gpu_platform(4)
        sys_cfg = SystemConfig(hybrid=False, drm=False, prefetch=False)
        self.session = TrainingSession(
            dataset, train_cfg, sys_cfg, self.platform,
            full_scale=full_scale, profile_probes=profile_probes,
            sampler_rate_per_thread=
            PYG_SAMPLE_RATE_EDGES_PER_S_PER_THREAD)
        self.backend = VirtualTimeBackend(self.session)
        # PyG's dataloader parallelism, not the full thread budget.
        self.session.split = self.session.split.with_updates(
            sample_threads=PYG_SAMPLER_WORKERS,
            load_threads=PYG_LOADER_WORKERS)

    def simulate_epoch(self, iterations: int | None = None
                       ) -> RunReport:
        """Timing-only epoch simulation (serialized pipeline)."""
        return self.backend.simulate_epoch(iterations=iterations)

    def report(self) -> BaselineReport:
        """One-epoch summary in the common baseline format."""
        rep = self.simulate_epoch()
        st = rep.stage_history[0] if rep.stage_history else None
        breakdown = st.as_dict() if st is not None else {}
        return BaselineReport(
            system=self.name, dataset=self.dataset.name,
            model=self.train_cfg.model,
            epoch_time_s=rep.virtual_time_s, iterations=rep.iterations,
            iteration_time_s=rep.virtual_time_s / max(1, rep.iterations),
            stage_breakdown=breakdown)
