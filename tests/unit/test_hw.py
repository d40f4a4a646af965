"""Unit tests for the hw package (specs, cost models, topology)."""

import importlib.util

import numpy as np
import pytest

from repro.errors import ConfigError, DeviceError
from repro.hw.cost_models import (
    CPUKernelModel,
    FPGAKernelModel,
    GPUKernelModel,
    fpga_resource_utilization,
)
from repro.hw.specs import (
    AMD_EPYC_7763,
    LINK_PCIE4_X16,
    NVIDIA_A5000,
    XILINX_U250,
    DeviceSpec,
    LinkSpec,
)
from repro.hw.topology import (
    distdgl_node,
    hyscale_cpu_fpga_platform,
    hyscale_cpu_gpu_platform,
    p3_node,
    pagraph_node,
)
from repro.sampling.base import MiniBatchStats


def _stats():
    return MiniBatchStats((2000, 400, 100), (5000, 800), 64)


DIMS = (64, 128, 16)


class TestSpecs:
    def test_table2_values(self):
        assert AMD_EPYC_7763.peak_tflops == 3.6
        assert AMD_EPYC_7763.mem_bandwidth_gbps == 205.0
        assert AMD_EPYC_7763.frequency_ghz == 2.45
        assert NVIDIA_A5000.peak_tflops == 27.8
        assert NVIDIA_A5000.mem_bandwidth_gbps == 768.0
        assert XILINX_U250.peak_tflops == 0.6
        assert XILINX_U250.mem_bandwidth_gbps == 77.0
        assert XILINX_U250.frequency_ghz == 0.30
        assert XILINX_U250.onchip_memory_mb == 54.0

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            DeviceSpec("x", "tpu", 1, 1, 1, 1, 1, 0.5, 1.0, False,
                       False, 0.0)
        with pytest.raises(ConfigError):
            DeviceSpec("x", "cpu", -1, 1, 1, 1, 1, 0.5, 1.0, False,
                       False, 0.0)
        with pytest.raises(ConfigError):
            DeviceSpec("x", "cpu", 1, 1, 1, 1, 1, 1.5, 1.0, False,
                       False, 0.0)
        with pytest.raises(ConfigError):
            DeviceSpec("x", "cpu", 1, 1, 1, 1, 1, 0.5, 0.5, False,
                       False, 0.0)

    def test_link_transfer_time(self):
        link = LinkSpec("l", bandwidth_gbps=10.0, latency_s=1e-5)
        assert np.isclose(link.transfer_time(10e9), 1.0 + 1e-5)
        with pytest.raises(ConfigError):
            link.transfer_time(-1)
        with pytest.raises(ConfigError):
            LinkSpec("l", bandwidth_gbps=0.0, latency_s=0.0)

    def test_paper_premise_mag_exceeds_device_memory(self):
        """MAG240M features (~368 GB fp32) overflow any Table II device
        but fit in 2 TB of host memory (paper §I)."""
        mag_bytes = 121_751_666 * 756 * 4
        for dev in (NVIDIA_A5000, XILINX_U250):
            assert mag_bytes > dev.device_memory_gb * 1e9
        assert mag_bytes <= 2e12


class TestKernelModels:
    def test_one_module_named_kernels(self):
        # The cost models live in ``repro.hw.cost_models`` only; the
        # package re-exports them, and ``repro.kernels`` is the sole
        # module called ``kernels``.
        import repro.hw as hw
        assert importlib.util.find_spec("repro.hw.kernels") is None
        assert hw.CPUKernelModel is CPUKernelModel
        assert hw.CPUKernelModel.__module__ == "repro.hw.cost_models"

    def test_kind_mismatch(self):
        with pytest.raises(DeviceError):
            CPUKernelModel(NVIDIA_A5000)
        with pytest.raises(DeviceError):
            GPUKernelModel(AMD_EPYC_7763)
        with pytest.raises(DeviceError):
            FPGAKernelModel(NVIDIA_A5000)

    def test_breakdown_structure(self):
        b = GPUKernelModel(NVIDIA_A5000).propagation(_stats(), DIMS,
                                                     "gcn")
        assert len(b.aggregate_s) == 2 and len(b.update_s) == 2
        assert b.total_s == pytest.approx(
            b.forward_s + b.backward_s + b.overhead_s)
        assert b.ddr_bytes > 0 and b.macs > 0

    def test_sage_costs_more_than_gcn(self):
        gpu = GPUKernelModel(NVIDIA_A5000)
        g = gpu.propagation(_stats(), DIMS, "gcn")
        s = gpu.propagation(_stats(), DIMS, "sage")
        assert s.macs > g.macs

    def test_fpga_pipelining_is_max(self):
        fpga = FPGAKernelModel(XILINX_U250)
        b = fpga.propagation(_stats(), DIMS, "gcn")
        expected_fwd = sum(max(a, u) for a, u in zip(b.aggregate_s,
                                                     b.update_s))
        assert b.forward_s == pytest.approx(expected_fwd)

    def test_cpu_serial_is_sum(self):
        cpu = CPUKernelModel(AMD_EPYC_7763, num_threads=128,
                             max_threads=128)
        b = cpu.propagation(_stats(), DIMS, "gcn")
        expected_fwd = sum(a + u for a, u in zip(b.aggregate_s,
                                                 b.update_s))
        assert b.forward_s == pytest.approx(expected_fwd)

    def test_backward_skips_layer1_aggregation(self):
        cpu = CPUKernelModel(AMD_EPYC_7763)
        b = cpu.propagation(_stats(), DIMS, "gcn")
        expected_bwd = b.update_s[0] + b.aggregate_s[1] + b.update_s[1]
        assert b.backward_s == pytest.approx(expected_bwd)

    def test_cpu_threads_scale_time(self):
        full = CPUKernelModel(AMD_EPYC_7763, num_threads=128,
                              max_threads=128)
        half = CPUKernelModel(AMD_EPYC_7763, num_threads=64,
                              max_threads=128)
        tf = full.propagation(_stats(), DIMS, "gcn")
        th = half.propagation(_stats(), DIMS, "gcn")
        # Work terms double; the fixed overhead does not.
        assert th.forward_s == pytest.approx(2 * tf.forward_s)
        assert th.overhead_s == tf.overhead_s

    def test_cpu_thread_count_range(self):
        with pytest.raises(DeviceError):
            CPUKernelModel(AMD_EPYC_7763, num_threads=0)
        with pytest.raises(DeviceError):
            CPUKernelModel(AMD_EPYC_7763, num_threads=129,
                           max_threads=128)
        assert CPUKernelModel(AMD_EPYC_7763, num_threads=1).num_threads == 1
        assert CPUKernelModel(AMD_EPYC_7763, num_threads=128,
                              max_threads=128).num_threads == 128

    def test_fpga_feature_duplicator_traffic(self):
        """Layer-1 DDR traffic is O(|V^0|), not O(|E^1|) (paper §IV-C)."""
        fpga = FPGAKernelModel(XILINX_U250)
        sparse = MiniBatchStats((2000, 400, 100), (5000, 800), 64)
        dense = MiniBatchStats((2000, 400, 100), (50000, 800), 64)
        b_sparse = fpga.propagation(sparse, DIMS, "gcn")
        b_dense = fpga.propagation(dense, DIMS, "gcn")
        # 10x the edges but the same |V^0|: input traffic unchanged.
        v0_bytes = 2000 * 64 * 4
        assert b_sparse.ddr_bytes == b_dense.ddr_bytes
        assert b_sparse.ddr_bytes >= 2 * v0_bytes

    def test_gpu_charges_edge_traffic(self):
        gpu = GPUKernelModel(NVIDIA_A5000)
        sparse = MiniBatchStats((2000, 400, 100), (5000, 800), 64)
        dense = MiniBatchStats((2000, 400, 100), (50000, 800), 64)
        assert gpu.propagation(dense, DIMS, "gcn").ddr_bytes > \
            5 * gpu.propagation(sparse, DIMS, "gcn").ddr_bytes

    def test_dims_validation(self):
        gpu = GPUKernelModel(NVIDIA_A5000)
        with pytest.raises(ConfigError):
            gpu.propagation(_stats(), (64, 128), "gcn")   # missing layer
        with pytest.raises(ConfigError):
            gpu.propagation(_stats(), (32, 128, 16), "gcn")  # f0 wrong
        with pytest.raises(ConfigError):
            gpu.propagation(_stats(), DIMS, "gat")

    def test_kernel_launch_counts(self):
        assert GPUKernelModel(NVIDIA_A5000).kernel_launches(2) == 24
        assert FPGAKernelModel(XILINX_U250).kernel_launches(2) == 2

    def test_fpga_invalid_parallelism(self):
        with pytest.raises(DeviceError):
            FPGAKernelModel(XILINX_U250, n_pes=0)


class TestFPGAResources:
    def test_table4_reproduction(self):
        u = fpga_resource_utilization(8, 2048)
        assert abs(u.luts - 0.72) < 0.03
        assert abs(u.dsps - 0.90) < 0.03
        assert abs(u.uram - 0.48) < 0.03
        assert abs(u.bram - 0.40) < 0.03
        assert u.feasible()

    def test_doubling_macs_exceeds_dsps(self):
        u = fpga_resource_utilization(8, 4096)
        assert u.dsps > 1.0
        assert not u.feasible()

    def test_monotone_in_pes(self):
        a = fpga_resource_utilization(4, 2048)
        b = fpga_resource_utilization(8, 2048)
        assert b.luts > a.luts and b.uram > a.uram

    def test_invalid(self):
        with pytest.raises(DeviceError):
            fpga_resource_utilization(0, 100)


class TestTopology:
    def test_hyscale_platforms(self):
        g = hyscale_cpu_gpu_platform(4)
        f = hyscale_cpu_fpga_platform(4)
        assert g.num_accelerators == 4 and g.accelerator.kind == "gpu"
        assert f.accelerator.kind == "fpga"
        assert g.cpu_peak_tflops == pytest.approx(7.2)
        assert g.total_peak_tflops == pytest.approx(7.2 + 4 * 27.8)
        assert g.host_mem_bandwidth == pytest.approx(410e9)

    def test_comparator_platforms_match_table5(self):
        pa = pagraph_node()
        assert pa.num_nodes == 1 and pa.num_accelerators == 8
        p3 = p3_node()
        assert p3.num_nodes == 4 and p3.num_accelerators == 4
        dd = distdgl_node()
        assert dd.num_nodes == 8 and dd.num_accelerators == 8

    def test_validation(self):
        from repro.hw.topology import PlatformSpec
        with pytest.raises(ConfigError):
            PlatformSpec("x", AMD_EPYC_7763, 0, None, 0, LINK_PCIE4_X16)
        with pytest.raises(ConfigError):
            PlatformSpec("x", AMD_EPYC_7763, 1, None, 2, LINK_PCIE4_X16)
