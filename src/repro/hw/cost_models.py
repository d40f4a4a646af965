"""Kernel cost models: GNN propagation time per device kind.

Implements the per-trainer term of the paper's performance model (Eq. 10):

    T_trainer = Σ_l ⊕(t_agg^l, t_upd^l)            (forward)
              + t_upd^1 + Σ_{l≥2} ⊕(t_agg^l, t_upd^l)   (backward)

with ⊕ = max for devices whose aggregate/update stages are pipelined
(FPGA; paper §V) and ⊕ = + otherwise. The layer-1 aggregation backward is
omitted because input-feature gradients are never needed — exactly the
structure of Eq. 10. The functional plane has the same structure:
:meth:`repro.nn.models.GNNModel.backward` stops at the first layer's
parameter gradients and never runs that aggregation backward.

The three concrete models charge different traffic for the *same* batch:

* :class:`CPUKernelModel` / :class:`GPUKernelModel` — aggregation reads
  ``|E^l| × f_in`` message floats, multiplied by the device's
  ``gather_inefficiency`` (cache-line waste + PyG-style materialized edge
  tensors), plus the aggregation output write; the dense update pays a
  spill round-trip through device memory when ``intermediate_spill``.
* :class:`FPGAKernelModel` — the §IV-C design: layer-1 input features are
  streamed from device DDR exactly once (``|V^0| × f^0``; the Feature
  Duplicator makes reuse free), deeper layers stay on chip, only the final
  embedding is written back, and the scatter-gather array processes
  ``n_pes × vec_lanes`` feature elements per cycle.

Every model also reports total DDR bytes and MACs so benches can show *why*
a device wins (paper §VI-E1's explanation), and
:func:`fpga_resource_utilization` provides the mechanistic resource model
behind Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..config import S_FEAT_BYTES
from ..errors import ConfigError, DeviceError
from ..sampling.base import MiniBatchStats
from .specs import DeviceSpec


@dataclass(frozen=True)
class PropagationBreakdown:
    """Per-layer and total propagation costs for one mini-batch."""

    aggregate_s: tuple[float, ...]   # t_agg^l, l = 1..L
    update_s: tuple[float, ...]      # t_upd^l, l = 1..L
    forward_s: float
    backward_s: float
    ddr_bytes: int
    macs: int
    overhead_s: float = 0.0          # framework / dispatch fixed cost

    @property
    def total_s(self) -> float:
        """T_trainer for this batch (including software-stack overhead)."""
        return self.forward_s + self.backward_s + self.overhead_s


def _update_in_dim(model: str, f_in: int) -> int:
    """Input width of the dense update: SAGE's self rows and neighbor
    mean each multiply their own ``f_in``-row block of the weight, so
    its update is ``2 × f_in`` wide (the same MACs as the concat)."""
    return 2 * f_in if model == "sage" else f_in


def _check_args(stats: MiniBatchStats, dims: Sequence[int],
                model: str) -> None:
    if model not in ("gcn", "sage"):
        raise ConfigError(f"unknown model {model!r}")
    if len(dims) != stats.num_layers + 1:
        raise ConfigError(
            f"dims has {len(dims)} entries but batch has "
            f"{stats.num_layers} layers (need L+1)")
    if dims[0] != stats.feature_dim:
        raise ConfigError("dims[0] must equal the batch feature_dim")


class _ProcessorKernelModel:
    """Shared CPU/GPU cost model (they differ only in their spec knobs)."""

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec

    # -- per-layer terms -------------------------------------------------
    def _t_aggregate(self, num_edges: int, num_dst: int,
                     f_in: int) -> tuple[float, int]:
        """Seconds and bytes for one layer's aggregation."""
        s = self.spec
        read = num_edges * f_in * S_FEAT_BYTES * s.gather_inefficiency
        write = num_dst * f_in * S_FEAT_BYTES
        traffic = read + write
        return traffic / s.mem_bandwidth, int(traffic)

    def _t_update(self, num_dst: int, f_in_upd: int,
                  f_out: int) -> tuple[float, int, int]:
        """Seconds, MACs and spill bytes for one layer's dense update."""
        s = self.spec
        macs = num_dst * f_in_upd * f_out
        compute = 2.0 * macs / (s.peak_flops * s.mlp_efficiency)
        spill_bytes = 0
        if s.intermediate_spill:
            spill_bytes = num_dst * (f_in_upd + f_out) * S_FEAT_BYTES
            compute = max(compute, spill_bytes / s.mem_bandwidth)
        return compute, int(macs), int(spill_bytes)

    # -- public ------------------------------------------------------------
    def propagation(self, stats: MiniBatchStats, dims: Sequence[int],
                    model: str) -> PropagationBreakdown:
        """T_trainer breakdown for one mini-batch (paper Eq. 10-12)."""
        _check_args(stats, dims, model)
        agg_times: list[float] = []
        upd_times: list[float] = []
        ddr = 0
        macs_total = 0
        L = stats.num_layers
        for l in range(1, L + 1):
            E_l = stats.num_edges_per_layer[l - 1]
            V_l = stats.num_nodes_per_layer[l]
            f_in, f_out = dims[l - 1], dims[l]
            t_a, bytes_a = self._t_aggregate(E_l, V_l, f_in)
            t_u, m_u, bytes_u = self._t_update(
                V_l, _update_in_dim(model, f_in), f_out)
            agg_times.append(t_a)
            upd_times.append(t_u)
            ddr += bytes_a + bytes_u
            macs_total += m_u

        combine = max if self.spec.pipelined_agg_update else \
            (lambda a, u: a + u)
        forward = sum(combine(a, u) for a, u in zip(agg_times, upd_times))
        backward = upd_times[0] + sum(
            combine(a, u) for a, u in zip(agg_times[1:], upd_times[1:]))
        # Backward traffic/compute mirror forward (paper §II-B).
        ddr = ddr * 2
        macs_total = macs_total * 2
        return PropagationBreakdown(
            aggregate_s=tuple(agg_times), update_s=tuple(upd_times),
            forward_s=forward, backward_s=backward,
            ddr_bytes=int(ddr), macs=int(macs_total),
            overhead_s=self.spec.framework_overhead_s)


class CPUKernelModel(_ProcessorKernelModel):
    """Trainer on the host CPUs (fetches from CPU memory, paper §V).

    ``num_threads`` scales the compute throughput and the memory-bandwidth
    share linearly up to the socket's limits; the DRM engine's
    ``balance_thread`` move acts through this parameter.
    """

    def __init__(self, spec: DeviceSpec, num_threads: int = 64,
                 max_threads: int = 128) -> None:
        if spec.kind != "cpu":
            raise DeviceError("CPUKernelModel requires a cpu spec")
        if not 1 <= num_threads <= max_threads:
            raise DeviceError("num_threads out of range")
        super().__init__(spec)
        self.num_threads = num_threads
        self.max_threads = max_threads

    @property
    def _share(self) -> float:
        return self.num_threads / self.max_threads

    def _t_aggregate(self, num_edges: int, num_dst: int,
                     f_in: int) -> tuple[float, int]:
        t, b = super()._t_aggregate(num_edges, num_dst, f_in)
        return t / self._share, b

    def _t_update(self, num_dst: int, f_in_upd: int,
                  f_out: int) -> tuple[float, int, int]:
        t, m, b = super()._t_update(num_dst, f_in_upd, f_out)
        return t / self._share, m, b


class GPUKernelModel(_ProcessorKernelModel):
    """Trainer on a GPU executing PyG-style op-by-op kernels."""

    def __init__(self, spec: DeviceSpec) -> None:
        if spec.kind != "gpu":
            raise DeviceError("GPUKernelModel requires a gpu spec")
        super().__init__(spec)

    def kernel_launches(self, num_layers: int) -> int:
        """Kernel launches per batch: ~6 ops/layer forward + backward.

        (gather, message, scatter, gemm, bias, relu) — used by the event
        simulator's launch-overhead charge.
        """
        return 6 * num_layers * 2


class FPGAKernelModel:
    """The paper's custom FPGA kernel (§IV-C, Fig. 6, Table IV).

    Parameters
    ----------
    n_pes:
        Scatter-gather PE pairs (Table IV: n = 8).
    m_macs:
        MAC units in the systolic update array (Table IV: m = 2048).
    vec_lanes:
        Feature elements each PE consumes per cycle (512-bit bus / fp32).
    """

    def __init__(self, spec: DeviceSpec, n_pes: int = 8,
                 m_macs: int = 2048, vec_lanes: int = 16) -> None:
        if spec.kind != "fpga":
            raise DeviceError("FPGAKernelModel requires an fpga spec")
        if min(n_pes, m_macs, vec_lanes) <= 0:
            raise DeviceError("parallelism parameters must be positive")
        self.spec = spec
        self.n_pes = n_pes
        self.m_macs = m_macs
        self.vec_lanes = vec_lanes

    # -- per-layer terms -------------------------------------------------
    def _t_aggregate(self, num_edges: int, num_src: int, f_in: int,
                     from_ddr: bool) -> tuple[float, int]:
        """max(edge-stream compute, DDR feature streaming).

        ``from_ddr`` is True only for layer 1: deeper layers read the
        previous update's output from on-chip buffers.
        """
        s = self.spec
        elems_per_s = self.n_pes * self.vec_lanes * s.frequency_ghz * 1e9
        compute = num_edges * f_in / elems_per_s
        traffic = 0
        if from_ddr:
            # Feature Duplicator: each distinct source feature read once.
            traffic = num_src * f_in * S_FEAT_BYTES
        return max(compute, traffic / s.mem_bandwidth), int(traffic)

    def _t_update(self, num_dst: int, f_in_upd: int, f_out: int,
                  write_out: bool) -> tuple[float, int, int]:
        """Systolic-array GEMM; only the final layer writes to DDR."""
        s = self.spec
        macs = num_dst * f_in_upd * f_out
        macs_per_s = self.m_macs * s.frequency_ghz * 1e9 * s.mlp_efficiency
        compute = macs / macs_per_s
        out_bytes = num_dst * f_out * S_FEAT_BYTES if write_out else 0
        compute = max(compute, out_bytes / s.mem_bandwidth)
        return compute, int(macs), int(out_bytes)

    # -- public ------------------------------------------------------------
    def propagation(self, stats: MiniBatchStats, dims: Sequence[int],
                    model: str) -> PropagationBreakdown:
        """T_trainer with ⊕ = max (pipelined aggregate/update)."""
        _check_args(stats, dims, model)
        agg_times: list[float] = []
        upd_times: list[float] = []
        ddr = 0
        macs_total = 0
        L = stats.num_layers
        for l in range(1, L + 1):
            E_l = stats.num_edges_per_layer[l - 1]
            V_lm1 = stats.num_nodes_per_layer[l - 1]
            V_l = stats.num_nodes_per_layer[l]
            f_in, f_out = dims[l - 1], dims[l]
            t_a, bytes_a = self._t_aggregate(E_l, V_lm1, f_in,
                                             from_ddr=(l == 1))
            t_u, m_u, bytes_u = self._t_update(
                V_l, _update_in_dim(model, f_in), f_out,
                write_out=(l == L))
            agg_times.append(t_a)
            upd_times.append(t_u)
            ddr += bytes_a + bytes_u
            macs_total += m_u

        forward = sum(max(a, u) for a, u in zip(agg_times, upd_times))
        backward = upd_times[0] + sum(
            max(a, u) for a, u in zip(agg_times[1:], upd_times[1:]))
        ddr = ddr * 2
        macs_total = macs_total * 2
        return PropagationBreakdown(
            aggregate_s=tuple(agg_times), update_s=tuple(upd_times),
            forward_s=forward, backward_s=backward,
            ddr_bytes=int(ddr), macs=int(macs_total),
            overhead_s=self.spec.framework_overhead_s)

    def kernel_launches(self, num_layers: int) -> int:
        """One enqueueTask per direction — the whole pass is one kernel."""
        return 2


# ---------------------------------------------------------------------------
# FPGA resource model (Table IV)
# ---------------------------------------------------------------------------

#: Alveo U250 available resources.
U250_LUTS = 1_728_000
U250_DSPS = 12_288
U250_URAM = 1_280
U250_BRAM = 2_688

#: Per-unit costs. Calibrated so (n=8, m=2048) reproduces Table IV's
#: 72% LUT / 90% DSP / 48% URAM / 40% BRAM: an fp32 MAC costs ~5.4 DSPs
#: and ~360 LUTs; each scatter-gather PE pair costs ~27k LUTs plus URAM
#: feature buffers; the shell (PCIe/DDR controllers) is fixed overhead.
_SHELL_LUTS = 290_000
_LUTS_PER_MAC = 360
_LUTS_PER_PE = 27_000
_DSPS_PER_MAC = 5.4
_DSPS_PER_PE = 16
_URAM_PER_PE = 72        # per-PE feature store (Feature Duplicator copies)
_URAM_SHELL = 38
_BRAM_PER_PE = 56        # edge FIFOs + routing network buffers
_BRAM_WEIGHTS = 512      # weight buffer for the systolic array
_BRAM_SHELL = 114


@dataclass(frozen=True)
class FPGAUtilization:
    """Fractional resource utilization (paper Table IV row)."""

    luts: float
    dsps: float
    uram: float
    bram: float

    def feasible(self) -> bool:
        """Does the design fit the device?"""
        return max(self.luts, self.dsps, self.uram, self.bram) <= 1.0


def fpga_resource_utilization(n_pes: int = 8,
                              m_macs: int = 2048) -> FPGAUtilization:
    """Mechanistic U250 resource model for a (n, m) kernel configuration.

    At the paper's design point (8, 2048) this reproduces Table IV within
    a couple of percent; other points let benches explore the scaling
    trade-off (double m ⇒ DSPs exhaust first).
    """
    if n_pes <= 0 or m_macs <= 0:
        raise DeviceError("n_pes and m_macs must be positive")
    luts = _SHELL_LUTS + m_macs * _LUTS_PER_MAC + n_pes * _LUTS_PER_PE
    dsps = m_macs * _DSPS_PER_MAC + n_pes * _DSPS_PER_PE
    uram = _URAM_SHELL + n_pes * _URAM_PER_PE
    bram = _BRAM_SHELL + _BRAM_WEIGHTS + n_pes * _BRAM_PER_PE
    return FPGAUtilization(
        luts=luts / U250_LUTS,
        dsps=dsps / U250_DSPS,
        uram=uram / U250_URAM,
        bram=bram / U250_BRAM,
    )
