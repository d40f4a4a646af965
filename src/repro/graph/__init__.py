"""Graph substrate: CSR storage, generators, datasets, partitioning.

The input graph topology ``G(V, E)`` is stored in host ("CPU") memory as a
compressed sparse row structure (:class:`CSRGraph`), exactly as HyScale-GNN
keeps the full topology host-resident (paper §III-B). Synthetic stand-ins for
the paper's three evaluation datasets live in :mod:`repro.graph.datasets`.
"""

from .csr import CSRGraph
from .coo import sort_edges_by_src
from .generators import power_law_graph
from .datasets import (
    DATASET_REGISTRY,
    DatasetSpec,
    GraphDataset,
    load_dataset,
)
from .partition import (
    bfs_partition,
    halo,
    hash_partition,
    partition_quality,
)
from .validate import check_graph

__all__ = [
    "CSRGraph",
    "sort_edges_by_src",
    "power_law_graph",
    "DATASET_REGISTRY",
    "DatasetSpec",
    "GraphDataset",
    "load_dataset",
    "bfs_partition",
    "halo",
    "hash_partition",
    "partition_quality",
    "check_graph",
]
