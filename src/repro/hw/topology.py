"""Platform topology: sockets + accelerators + links (paper Fig. 2).

A :class:`PlatformSpec` describes one compute node: CPU sockets sharing a
host memory address space, accelerators each behind a PCIe link with their
own device memory. Factory functions build the paper's two testbeds and
the three comparator platforms of Table V.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from .specs import (
    AMD_EPYC_7763,
    LINK_NETWORK_100G,
    LINK_PCIE3_X16,
    LINK_PCIE4_X16,
    NVIDIA_A5000,
    NVIDIA_P100,
    NVIDIA_T4,
    NVIDIA_V100,
    XEON_E5_2690,
    XEON_PLATINUM_8163,
    XILINX_U250,
    DeviceSpec,
    LinkSpec,
)


@dataclass(frozen=True)
class PlatformSpec:
    """One compute node (optionally replicated into a cluster).

    Attributes
    ----------
    cpu / num_sockets:
        Host processor spec and socket count; host memory bandwidth
        aggregates across sockets (shared address space via the processor
        interconnect, paper §II-C).
    accelerator / num_accelerators:
        Accelerator spec and count; ``None`` for CPU-only nodes.
    pcie:
        The host-accelerator link (each accelerator has its own).
    network:
        Inter-node link; only used when ``num_nodes > 1``.
    num_nodes:
        Nodes in the cluster (1 for HyScale-GNN, 4 for P3, 8 for DistDGL).
    """

    name: str
    cpu: DeviceSpec
    num_sockets: int
    accelerator: DeviceSpec | None
    num_accelerators: int
    pcie: LinkSpec
    network: LinkSpec = LINK_NETWORK_100G
    num_nodes: int = 1

    def __post_init__(self) -> None:
        if self.num_sockets < 1:
            raise ConfigError("need at least one socket")
        if self.num_accelerators < 0:
            raise ConfigError("num_accelerators must be >= 0")
        if self.num_accelerators > 0 and self.accelerator is None:
            raise ConfigError("accelerator spec required")
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")

    # -- aggregates (per node) -------------------------------------------
    @property
    def host_mem_bandwidth(self) -> float:
        """Aggregate host DDR bandwidth in bytes/s (all sockets)."""
        return self.cpu.mem_bandwidth * self.num_sockets

    @property
    def cpu_peak_tflops(self) -> float:
        """Host compute across sockets."""
        return self.cpu.peak_tflops * self.num_sockets

    @property
    def accel_peak_tflops(self) -> float:
        """Accelerator compute across devices."""
        if self.accelerator is None:
            return 0.0
        return self.accelerator.peak_tflops * self.num_accelerators

    @property
    def total_peak_tflops(self) -> float:
        """Node peak (the Table VII normalization denominator), times
        ``num_nodes`` for clusters."""
        return (self.cpu_peak_tflops + self.accel_peak_tflops) * \
            self.num_nodes


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------

def hyscale_cpu_gpu_platform(num_gpus: int = 4) -> PlatformSpec:
    """The paper's CPU-GPU testbed: 2× EPYC 7763 + 4× RTX A5000."""
    return PlatformSpec(
        name=f"2xEPYC7763 + {num_gpus}xA5000",
        cpu=AMD_EPYC_7763, num_sockets=2,
        accelerator=NVIDIA_A5000, num_accelerators=num_gpus,
        pcie=LINK_PCIE4_X16)


def hyscale_cpu_fpga_platform(num_fpgas: int = 4) -> PlatformSpec:
    """The paper's CPU-FPGA testbed: 2× EPYC 7763 + 4× Alveo U250."""
    return PlatformSpec(
        name=f"2xEPYC7763 + {num_fpgas}xU250",
        cpu=AMD_EPYC_7763, num_sockets=2,
        accelerator=XILINX_U250, num_accelerators=num_fpgas,
        pcie=LINK_PCIE4_X16)


def pagraph_node() -> PlatformSpec:
    """PaGraph's platform (Table V): 2× Xeon 8163 + 8× V100, one node."""
    return PlatformSpec(
        name="PaGraph: 2xXeon8163 + 8xV100",
        cpu=XEON_PLATINUM_8163, num_sockets=2,
        accelerator=NVIDIA_V100, num_accelerators=8,
        pcie=LINK_PCIE3_X16)


def p3_node() -> PlatformSpec:
    """P3's platform (Table V): 4 nodes × (1× Xeon E5-2690 + 4× P100)."""
    return PlatformSpec(
        name="P3: 4x(Xeon E5-2690 + 4xP100)",
        cpu=XEON_E5_2690, num_sockets=1,
        accelerator=NVIDIA_P100, num_accelerators=4,
        pcie=LINK_PCIE3_X16,
        num_nodes=4)


def distdgl_node() -> PlatformSpec:
    """DistDGLv2's platform (Table V): 8 nodes × (96 vCPU + 8× T4).

    96 vCPUs ≈ 2 sockets of a 24-core/48-thread Xeon; we model each node's
    host as 2× Xeon 8163-class sockets.
    """
    return PlatformSpec(
        name="DistDGLv2: 8x(96vCPU + 8xT4)",
        cpu=XEON_PLATINUM_8163, num_sockets=2,
        accelerator=NVIDIA_T4, num_accelerators=8,
        pcie=LINK_PCIE3_X16,
        num_nodes=8)
