"""Hardware models: device specs, kernel cost models, topology.

This package is the reproduction's substitute for the physical testbed
(paper Table II: dual EPYC 7763 + 4× A5000 or 4× U250). Device behaviour
is modelled mechanistically — bytes moved and MACs executed are counted
from the *actual* mini-batch structure, then divided by spec'd bandwidths
and throughputs — so orderings and crossovers in the benchmarks emerge
from the same mechanisms the paper describes rather than being hardcoded.
"""

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
from .topology import (
    PlatformSpec,
    distdgl_node,
    hyscale_cpu_fpga_platform,
    hyscale_cpu_gpu_platform,
    p3_node,
    pagraph_node,
)
from .cost_models import (
    CPUKernelModel,
    FPGAKernelModel,
    GPUKernelModel,
    PropagationBreakdown,
    fpga_resource_utilization,
)

__all__ = [
    "DeviceSpec",
    "LinkSpec",
    "AMD_EPYC_7763",
    "NVIDIA_A5000",
    "XILINX_U250",
    "NVIDIA_V100",
    "NVIDIA_P100",
    "NVIDIA_T4",
    "XEON_PLATINUM_8163",
    "XEON_E5_2690",
    "LINK_PCIE3_X16",
    "LINK_PCIE4_X16",
    "LINK_NETWORK_100G",
    "PlatformSpec",
    "hyscale_cpu_gpu_platform",
    "hyscale_cpu_fpga_platform",
    "pagraph_node",
    "p3_node",
    "distdgl_node",
    "CPUKernelModel",
    "GPUKernelModel",
    "FPGAKernelModel",
    "PropagationBreakdown",
    "fpga_resource_utilization",
]
