"""The paper's performance model (Eq. 5-13) over a workload split.

Definitions (paper §V):

* Eq. 5 — throughput in MTEPS: Σ_i Σ_l |E^l_i| / T_execution.
* Eq. 6 — T_execution = max(T_samp, T_load, T_trans, T_prop): the four
  stages pipeline, so the slowest dominates (pipelined mode). With
  prefetching disabled they serialize (sum) — used by the Fig. 11
  ablation and the multi-GPU baseline.
* Eq. 7 — Feature Loading is host-DDR bound across *all* trainers'
  batches (the Feature Loader runs only on CPUs).
* Eq. 8 — Data Transfer is per-accelerator PCIe time (links are private,
  so the stage time is the max across accelerators).
* Eq. 9-12 — GNN propagation: max over trainers of the kernel-model
  T_trainer, plus the synchronization term.
* Eq. 13 — T_sync: the model crosses PCIe twice (gather + broadcast).

The workload split (which trainer executes how many targets, where
sampling runs, how CPU threads divide among CPU-resident stages) is the
object the DRM engine mutates at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from ..config import S_FEAT_BYTES
from ..errors import ConfigError
from ..hw.cost_models import CPUKernelModel, FPGAKernelModel, GPUKernelModel
from ..hw.specs import LOADER_DDR_EFFICIENCY
from ..hw.topology import PlatformSpec
from ..nn.models import model_size_bytes
from ..sampling.base import MiniBatchStats
from .sampling_profile import (
    ACCEL_SAMPLE_RATE_EDGES_PER_S,
    HYSCALE_SAMPLE_RATE_EDGES_PER_S_PER_THREAD,
    SamplingProfile,
)

#: Host-memory gather throughput of one loader thread (bytes/s). Feature
#: rows are 400 B - 3 KB; a single thread sustains ~3 GB/s of random row
#: gathers, so the loader needs many threads to saturate host DDR.
LOADER_THREAD_RATE = 3.0e9

#: Total hardware threads of the dual-EPYC host (2 x 64 cores x SMT2).
DEFAULT_CPU_THREADS = 256


@dataclass(frozen=True)
class WorkloadSplit:
    """Assignment of one iteration's work onto the platform.

    Attributes
    ----------
    cpu_targets:
        Mini-batch targets trained on the CPU trainer (0 = CPU does not
        train, the non-hybrid configuration).
    accel_targets:
        Targets trained on each accelerator.
    accel_sample_fraction:
        Share of sampling workload executed on the accelerators
        (Algorithm 1's T_SA path); the rest samples on CPU threads.
    sample_threads / load_threads / train_threads:
        CPU thread allocation for the three CPU-resident tasks
        (Algorithm 1's ``balance_thread`` moves threads between them).
    """

    cpu_targets: int
    accel_targets: tuple[int, ...]
    accel_sample_fraction: float = 0.0
    sample_threads: int = 96
    load_threads: int = 64
    train_threads: int = 96

    def __post_init__(self) -> None:
        if self.cpu_targets < 0 or any(t < 0 for t in self.accel_targets):
            raise ConfigError("target counts must be non-negative")
        if not 0.0 <= self.accel_sample_fraction <= 1.0:
            raise ConfigError("accel_sample_fraction must be in [0, 1]")
        if min(self.sample_threads, self.load_threads) < 1:
            raise ConfigError("sampler/loader need at least one thread")
        if self.train_threads < 0:
            raise ConfigError("train_threads must be >= 0")
        if self.cpu_targets > 0 and self.train_threads < 1:
            raise ConfigError("CPU training requires train_threads >= 1")

    @property
    def total_targets(self) -> int:
        """Targets trained per iteration across all trainers — invariant
        under DRM re-balancing (paper §IV-A)."""
        return self.cpu_targets + sum(self.accel_targets)

    @property
    def total_threads(self) -> int:
        return self.sample_threads + self.load_threads + \
            self.train_threads

    def with_updates(self, **kwargs) -> "WorkloadSplit":
        """Copy with fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class StageTimes:
    """Per-stage times of one iteration (Algorithm 1's inputs)."""

    t_sample_cpu: float      # T_SC
    t_sample_accel: float    # T_SA
    t_load: float            # T_Load
    t_transfer: float        # T_Tran (max over accelerators)
    t_train_cpu: float       # T_TC
    t_train_accel: float     # T_TA (max over accelerators)
    t_sync: float

    @property
    def t_sample(self) -> float:
        """Sampling stage: CPU and accelerator samplers run concurrently."""
        return max(self.t_sample_cpu, self.t_sample_accel)

    @property
    def t_accel(self) -> float:
        """Algorithm 1 line 1: transfer and accelerator training bundle."""
        return max(self.t_transfer, self.t_train_accel)

    @property
    def t_prop(self) -> float:
        """Eq. 9: slowest trainer plus synchronization."""
        return max(self.t_train_cpu, self.t_train_accel) + self.t_sync

    def iteration_time(self, pipelined: bool = True) -> float:
        """Eq. 6 (pipelined) or the serialized sum (prefetching off)."""
        if pipelined:
            return max(self.t_sample, self.t_load, self.t_transfer,
                       self.t_prop)
        return self.t_sample + self.t_load + self.t_transfer + self.t_prop

    def as_dict(self) -> dict[str, float]:
        """Named stage times (for traces and logs)."""
        return {
            "sample_cpu": self.t_sample_cpu,
            "sample_accel": self.t_sample_accel,
            "load": self.t_load,
            "transfer": self.t_transfer,
            "train_cpu": self.t_train_cpu,
            "train_accel": self.t_train_accel,
            "sync": self.t_sync,
        }

    def with_updates(self, **kwargs) -> "StageTimes":
        """Copy with fields replaced (how a live timing step lays the
        realized stage seconds over the modelled ones without mutating
        the frozen model output other consumers hold)."""
        return replace(self, **kwargs)


def throughput_mteps(total_edges_per_iteration: float,
                     iteration_time_s: float) -> float:
    """Eq. 5: millions of traversed edges per second."""
    if iteration_time_s <= 0:
        raise ConfigError("iteration time must be positive")
    return total_edges_per_iteration / iteration_time_s / 1e6


class PerformanceModel:
    """Closed-form stage-time predictor for one platform + workload.

    Parameters
    ----------
    platform:
        Node description (devices, links).
    dims:
        Layer feature lengths (f^0, ..., f^L).
    model_name:
        ``"gcn"`` or ``"sage"``.
    profile:
        Measured :class:`SamplingProfile` for the dataset/fanouts, used
        both for expected batch statistics and sampling times.
    sampler_rate_per_thread:
        CPU sampler throughput (edges/s/thread); swap in the PyG rate to
        model the baseline's sampler.
    total_cpu_threads:
        Host thread budget that the split's three allocations must fit.
    fpga_n_pes / fpga_m_macs:
        FPGA kernel parallelism (Table IV) when the platform's
        accelerators are FPGAs.
    """

    def __init__(self, platform: PlatformSpec, dims: Sequence[int],
                 model_name: str, profile: SamplingProfile, *,
                 sampler_rate_per_thread: float =
                 HYSCALE_SAMPLE_RATE_EDGES_PER_S_PER_THREAD,
                 total_cpu_threads: int = DEFAULT_CPU_THREADS,
                 transfer_elem_bytes: int = S_FEAT_BYTES,
                 fpga_n_pes: int = 8, fpga_m_macs: int = 2048) -> None:
        if model_name not in ("gcn", "sage"):
            raise ConfigError(f"unknown model {model_name!r}")
        if transfer_elem_bytes not in (1, 2, 4):
            raise ConfigError("transfer_elem_bytes must be 1, 2 or 4")
        self.platform = platform
        self.dims = tuple(int(d) for d in dims)
        self.model_name = model_name
        self.profile = profile
        self.sampler_rate_per_thread = sampler_rate_per_thread
        self.total_cpu_threads = total_cpu_threads
        self.transfer_elem_bytes = transfer_elem_bytes
        accel = platform.accelerator
        if accel is None:
            self._accel_model = None
        elif accel.kind == "gpu":
            self._accel_model = GPUKernelModel(accel)
        elif accel.kind == "fpga":
            self._accel_model = FPGAKernelModel(
                accel, n_pes=fpga_n_pes, m_macs=fpga_m_macs)
        else:
            raise ConfigError(f"unsupported accelerator kind {accel.kind}")

    # ------------------------------------------------------------------
    def validate_split(self, split: WorkloadSplit) -> None:
        """Check a split fits this platform."""
        if len(split.accel_targets) != self.platform.num_accelerators:
            raise ConfigError(
                f"split has {len(split.accel_targets)} accelerator "
                f"quotas; platform has {self.platform.num_accelerators}")
        if split.total_threads > self.total_cpu_threads:
            raise ConfigError(
                f"thread allocation {split.total_threads} exceeds budget "
                f"{self.total_cpu_threads}")

    # ------------------------------------------------------------------
    def stage_times(self, split: WorkloadSplit,
                    stats_cpu: MiniBatchStats | None = None,
                    stats_accel: Sequence[MiniBatchStats] | None = None
                    ) -> StageTimes:
        """Predict all stage times for one iteration.

        Realized batch statistics may be passed in (the runtime does, per
        iteration); otherwise expected statistics from the sampling
        profile are used (pure prediction, as at compile time).
        """
        self.validate_split(split)
        plat = self.platform

        if stats_cpu is None and split.cpu_targets > 0:
            stats_cpu = self.profile.expected_stats(split.cpu_targets)
        if stats_accel is None:
            stats_accel = [
                self.profile.expected_stats(t) if t > 0 else None
                for t in split.accel_targets]

        # ---- Sampling (empirical profile; paper §V) ----
        all_stats = [s for s in ([stats_cpu] + list(stats_accel))
                     if s is not None]
        total_edges = sum(s.total_edges for s in all_stats)
        cpu_edges = total_edges * (1.0 - split.accel_sample_fraction)
        accel_edges = total_edges * split.accel_sample_fraction
        t_sc = cpu_edges / (split.sample_threads *
                            self.sampler_rate_per_thread)
        if accel_edges > 0 and plat.num_accelerators > 0:
            accel_rate = ACCEL_SAMPLE_RATE_EDGES_PER_S[
                plat.accelerator.kind]
            t_sa = accel_edges / (plat.num_accelerators * accel_rate)
        else:
            t_sa = 0.0

        # ---- Feature Loading (Eq. 7): host DDR, CPU-only ----
        total_bytes = sum(s.input_feature_bytes for s in all_stats)
        load_rate = min(split.load_threads * LOADER_THREAD_RATE,
                        plat.host_mem_bandwidth * LOADER_DDR_EFFICIENCY)
        t_load = total_bytes / load_rate

        # ---- Data Transfer (Eq. 8): per-accelerator PCIe ----
        # Transfer traffic scales with the link precision (the §VIII
        # quantization extension); loading always reads fp32 from host.
        t_trans = 0.0
        for s in stats_accel:
            if s is not None:
                nbytes = s.num_input_nodes * s.feature_dim * \
                    self.transfer_elem_bytes
                t_trans = max(t_trans, plat.pcie.transfer_time(nbytes))

        # ---- GNN Propagation (Eq. 9-12) ----
        t_tc = 0.0
        if stats_cpu is not None and split.cpu_targets > 0:
            cpu_model = CPUKernelModel(
                plat.cpu, num_threads=max(1, split.train_threads),
                max_threads=self.total_cpu_threads)
            t_tc = cpu_model.propagation(
                stats_cpu, self.dims, self.model_name).total_s
        t_ta = 0.0
        for s in stats_accel:
            if s is not None and self._accel_model is not None:
                t_ta = max(t_ta, self._accel_model.propagation(
                    s, self.dims, self.model_name).total_s)

        # ---- Synchronization (Eq. 13) ----
        model_bytes = model_size_bytes(self.dims, self.model_name,
                                       S_FEAT_BYTES)
        t_sync = 2.0 * model_bytes / plat.pcie.bandwidth

        return StageTimes(t_sample_cpu=t_sc, t_sample_accel=t_sa,
                          t_load=t_load, t_transfer=t_trans,
                          t_train_cpu=t_tc, t_train_accel=t_ta,
                          t_sync=t_sync)

    # ------------------------------------------------------------------
    def iteration_time(self, split: WorkloadSplit,
                       pipelined: bool = True) -> float:
        """Predicted T_execution of one iteration (Eq. 6)."""
        return self.stage_times(split).iteration_time(pipelined)

    def epoch_time(self, split: WorkloadSplit, train_count: int,
                   pipelined: bool = True) -> float:
        """Predicted epoch time: iterations × T_execution."""
        if split.total_targets <= 0:
            raise ConfigError("split trains no targets")
        iterations = max(1, -(-train_count // split.total_targets))
        return iterations * self.iteration_time(split, pipelined)

    def throughput(self, split: WorkloadSplit,
                   pipelined: bool = True) -> float:
        """Predicted training throughput in MTEPS (Eq. 5)."""
        stats = [self.profile.expected_stats(t)
                 for t in ((split.cpu_targets,) + split.accel_targets)
                 if t > 0]
        total_edges = sum(s.total_edges for s in stats)
        return throughput_mteps(total_edges,
                                self.iteration_time(split, pipelined))
