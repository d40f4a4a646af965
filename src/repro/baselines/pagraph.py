"""PaGraph-like system (Lin et al., SoCC 2020; paper Table V row 1).

PaGraph trains on a single node (2× Xeon Platinum 8163 + 8× V100) and
attacks the CPU-GPU data-loading bottleneck with a *static feature cache*:
the highest-out-degree vertices' features are preloaded into each GPU's
spare memory; per batch, only cache misses cross PCIe. The paper's
critique (§VI-E2) — which this model reproduces mechanistically — is that
on large graphs the cacheable fraction collapses (papers100M features are
57 GB against ~10 GB of spare V100 memory), so misses dominate and PCIe
traffic grows.

Stage composition: PaGraph overlaps data loading with training (its
pipelined dataloader), so the iteration time is the max of (sample,
load+transfer-of-misses, GPU train); sampling uses DGL-era CPU rates.
"""

from __future__ import annotations

from ..config import S_FEAT_BYTES, TrainingConfig
from ..errors import ConfigError
from ..graph.datasets import GraphDataset
from ..hw.cost_models import GPUKernelModel
from ..hw.specs import LOADER_DDR_EFFICIENCY
from ..hw.topology import PlatformSpec, pagraph_node
from ..perfmodel.sampling_profile import (
    PYG_SAMPLE_RATE_EDGES_PER_S_PER_THREAD,
)
from .common import (
    BaselineReport,
    batch_stats_for,
    degree_ordered_hit_ratio,
    iterations_per_epoch,
    model_dims,
)

#: GPU memory reserved for model, activations and CUDA context; the rest
#: of the 16 GB V100 is feature cache.
GPU_RESERVE_GB = 6.0

#: DGL-era sampler threads on the 2x24-core Xeon host.
SAMPLER_THREADS = 96


class PaGraphSystem:
    """Single-node multi-GPU training with a static feature cache."""

    name = "PaGraph"

    def __init__(self, dataset: GraphDataset, train_cfg: TrainingConfig,
                 platform: PlatformSpec | None = None) -> None:
        self.dataset = dataset
        self.train_cfg = train_cfg
        self.platform = platform if platform is not None \
            else pagraph_node()
        if self.platform.accelerator is None:
            raise ConfigError("PaGraph needs GPUs")
        self._gpu_model = GPUKernelModel(self.platform.accelerator)
        self.dims = model_dims(dataset, train_cfg)

        # ---- cache sizing ----
        cache_bytes = max(0.0, (self.platform.accelerator.device_memory_gb
                                - GPU_RESERVE_GB) * 1e9)
        full_row_bytes = dataset.spec.feature_dim * S_FEAT_BYTES
        cacheable_vertices = cache_bytes / full_row_bytes
        self.cache_fraction = min(
            1.0, cacheable_vertices / dataset.spec.num_vertices)
        self.hit_ratio = degree_ordered_hit_ratio(dataset,
                                                  self.cache_fraction)

    # ------------------------------------------------------------------
    def iteration_time(self) -> tuple[float, dict[str, float]]:
        """Per-iteration time and stage breakdown."""
        plat = self.platform
        n_gpu = plat.num_accelerators
        mb = self.train_cfg.minibatch_size
        stats = batch_stats_for(self.dataset, self.train_cfg, mb)

        # Sampling: all GPUs' batches, DGL CPU sampler.
        total_edges = stats.total_edges * n_gpu
        t_sample = total_edges / (
            SAMPLER_THREADS * PYG_SAMPLE_RATE_EDGES_PER_S_PER_THREAD)

        # Feature path: only cache misses are gathered and transferred.
        miss_bytes = stats.input_feature_bytes * (1.0 - self.hit_ratio)
        t_load = miss_bytes * n_gpu / (
            plat.host_mem_bandwidth * LOADER_DDR_EFFICIENCY)
        t_transfer = plat.pcie.transfer_time(miss_bytes)

        # GPU propagation (per device, all run in parallel).
        t_train = self._gpu_model.propagation(
            stats, self.dims, self.train_cfg.model).total_s

        # All-reduce over NVLink/PCIe within the node (model is small).
        from ..nn.models import model_size_bytes
        t_sync = 2.0 * model_size_bytes(
            self.dims, self.train_cfg.model) / plat.pcie.bandwidth

        # PaGraph pipelines loading with training; sampling overlaps too.
        t_iter = max(t_sample, t_load + t_transfer, t_train + t_sync)
        return t_iter, {
            "sample": t_sample, "load": t_load, "transfer": t_transfer,
            "train": t_train, "sync": t_sync,
            "hit_ratio": self.hit_ratio,
        }

    def report(self) -> BaselineReport:
        """One-epoch summary."""
        n_gpu = self.platform.num_accelerators
        t_iter, breakdown = self.iteration_time()
        iters = iterations_per_epoch(
            self.dataset, self.train_cfg.minibatch_size * n_gpu)
        return BaselineReport(
            system=self.name, dataset=self.dataset.name,
            model=self.train_cfg.model,
            epoch_time_s=iters * t_iter, iterations=iters,
            iteration_time_s=t_iter, stage_breakdown=breakdown)
