"""Mini-batch samplers (paper §II-B, §III-A "Mini-batch Sampler").

The Mini-batch Sampler extracts a computational graph
``{G(V^l, E^l) : 1 <= l <= L}`` from the full topology each iteration. Two
sampler families from the paper are implemented:

* :class:`NeighborSampler` — GraphSAGE neighbor sampling [2], the sampler
  used in all paper experiments (fanouts 25, 10);
* the GraphSAINT family [29] (:class:`SaintNodeSampler`,
  :class:`SaintEdgeSampler`, :class:`SaintRWSampler`) — subgraph sampling.

Both produce :class:`MiniBatch` objects consumed by the GNN trainers and by
the hardware kernel cost models.

Sampler registry
----------------
The runtime never hard-codes a sampler class: it resolves
``TrainingConfig.sampler`` through :func:`build_sampler`, so every
execution backend (virtual-time, threaded, and future ones) accepts any
registered family. Third-party samplers join via :func:`register_sampler`;
a builder receives ``(graph, train_ids, train_cfg, feature_dim)`` and must
return a :class:`Sampler`.
"""

from typing import Callable

from ..errors import ConfigError, SamplingError
from ..registry import Registry
from .base import LayerBlock, MiniBatch, MiniBatchStats, Sampler
from .neighbor import NeighborSampler
from .saint import SaintEdgeSampler, SaintNodeSampler, SaintRWSampler
from .full import FullBatchSampler
from .shared import build_worker_sampler, trainer_sampler, worker_stream_seed

#: name -> builder(graph, train_ids, train_cfg, feature_dim) -> Sampler.
#: A :class:`~repro.registry.Registry` (the unified registry
#: discipline), dict-compatible for legacy call sites.
SAMPLER_REGISTRY: Registry = Registry("sampler")


def register_sampler(name: str,
                     builder: Callable[..., Sampler]) -> None:
    """Register a sampler family under ``name``.

    Re-registering an existing name replaces the builder (useful for
    tests monkey-patching a family).
    """
    if not name:
        raise SamplingError("sampler name must be non-empty")
    SAMPLER_REGISTRY.register(name, builder)


def get(name: str) -> Callable[..., Sampler]:
    """Look up a registered sampler builder by name.

    Unknown names raise :class:`~repro.errors.ConfigError` listing every
    registered family — the same contract as the execution-backend
    registry's ``get_backend``.
    """
    return SAMPLER_REGISTRY.get(name)


def available_samplers() -> tuple[str, ...]:
    """Registered sampler family names, sorted (the unified
    ``available_*`` surface shared with backends)."""
    return SAMPLER_REGISTRY.available()


def build_sampler(name: str, graph, train_ids, train_cfg,
                  feature_dim: int) -> Sampler:
    """Construct the sampler family ``name`` for the given workload.

    ``train_cfg`` supplies fanouts / layer count / seed; unknown names
    raise :class:`~repro.errors.ConfigError` listing the registry
    (via :func:`get`).
    """
    return get(name)(graph, train_ids, train_cfg, feature_dim)


register_sampler(
    "neighbor",
    lambda graph, ids, cfg, fdim: NeighborSampler(
        graph, ids, cfg.fanouts, fdim, seed=cfg.seed))
register_sampler(
    "saint-node",
    lambda graph, ids, cfg, fdim: SaintNodeSampler(
        graph, ids, cfg.num_layers, fdim, seed=cfg.seed))
register_sampler(
    "saint-edge",
    lambda graph, ids, cfg, fdim: SaintEdgeSampler(
        graph, ids, cfg.num_layers, fdim, seed=cfg.seed))
register_sampler(
    "saint-rw",
    lambda graph, ids, cfg, fdim: SaintRWSampler(
        graph, ids, cfg.num_layers, fdim, seed=cfg.seed))
register_sampler(
    "full",
    lambda graph, ids, cfg, fdim: FullBatchSampler(
        graph, ids, cfg.num_layers, fdim))

__all__ = [
    "LayerBlock",
    "MiniBatch",
    "MiniBatchStats",
    "Sampler",
    "NeighborSampler",
    "SaintNodeSampler",
    "SaintEdgeSampler",
    "SaintRWSampler",
    "FullBatchSampler",
    "SAMPLER_REGISTRY",
    "register_sampler",
    "get",
    "available_samplers",
    "build_sampler",
    "build_worker_sampler",
    "trainer_sampler",
    "worker_stream_seed",
]
