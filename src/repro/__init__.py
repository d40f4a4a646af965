"""HyScale-GNN reproduction library.

A production-quality Python reproduction of *HyScale-GNN: A Scalable Hybrid
GNN Training System on Single-Node Heterogeneous Architecture* (Lin &
Prasanna, IPDPS 2023). The package provides:

* :mod:`repro.graph` — host-resident CSR graph substrate + scaled synthetic
  stand-ins for the paper's datasets;
* :mod:`repro.sampling` — neighbor / GraphSAINT mini-batch samplers;
* :mod:`repro.nn` — from-scratch NumPy GNN layers (GCN, GraphSAGE) with
  exact manual backward passes;
* :mod:`repro.hw` — declarative device specs (paper Table II) and
  traffic/compute kernel cost models (CPU, GPU, FPGA scatter-gather +
  systolic design of §IV-C);
* :mod:`repro.sim` — discrete-event engine and timeline tracing;
* :mod:`repro.perfmodel` — the paper's analytic performance model (Eq. 5-13);
* :mod:`repro.runtime` — the hybrid training system itself: the
  processor-accelerator protocol, two-stage feature prefetching, the DRM
  engine (Algorithm 1), the :class:`~repro.runtime.TrainingSession` that
  owns them, and the execution backends that run a session;
* :mod:`repro.baselines` — the multi-GPU PyG-style baseline and mechanistic
  models of PaGraph, P3, and DistDGLv2 for Tables VI/VII.

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md`` for
paper-vs-measured results.
"""

from __future__ import annotations

from .config import (
    ABLATION_PRESETS,
    S_FEAT_BYTES,
    SystemConfig,
    TrainingConfig,
    layer_dims,
)
from .errors import (
    ConfigError,
    DeviceError,
    GraphError,
    ProtocolError,
    ReproError,
    SamplingError,
    ShapeError,
    SimulationError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "TrainingConfig",
    "SystemConfig",
    "ABLATION_PRESETS",
    "S_FEAT_BYTES",
    "layer_dims",
    "ReproError",
    "ConfigError",
    "GraphError",
    "SamplingError",
    "ShapeError",
    "DeviceError",
    "ProtocolError",
    "SimulationError",
]
