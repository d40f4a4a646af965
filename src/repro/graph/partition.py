"""Graph partitioners for the distributed comparator models.

P3 and DistDGL(v2) distribute the input graph across compute nodes (paper
§VII notes the resulting workload-imbalance and inter-node communication).
We provide two partitioners:

* :func:`hash_partition` — random/hash assignment (P3 partitions features by
  hashing; also the worst case for edge cut),
* :func:`bfs_partition` — locality-aware BFS growing, a stand-in for the
  METIS partitioning DistDGL uses (much lower edge cut on clustered graphs).

plus :func:`partition_quality` which reports the metrics the baselines
charge communication for (edge cut, replication factor, balance), and
:func:`halo`, the remote vertices one partition's batches can touch —
the admission candidates of the sharded plane's
:class:`~repro.runtime.remote_cache.RemoteFeatureCache`.

Empty partitions are legal throughout: a map produced with
``num_parts > num_vertices`` simply leaves some ids unused, and
``np.bincount(parts, minlength=num_parts)`` and :func:`halo` read them
as zero-sized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GraphError
from .csr import CSRGraph


def hash_partition(graph: CSRGraph, num_parts: int,
                   seed: int = 0) -> np.ndarray:
    """Assign each vertex to a partition pseudo-randomly.

    Returns an ``(num_vertices,)`` int array of partition ids. Balance is
    near-perfect; edge cut approaches ``(num_parts - 1) / num_parts``.
    """
    if num_parts <= 0:
        raise GraphError("num_parts must be positive")
    rng = np.random.default_rng(seed)
    parts = rng.integers(0, num_parts, size=graph.num_vertices,
                         dtype=np.int64)
    return parts


def bfs_partition(graph: CSRGraph, num_parts: int,
                  seed: int = 0) -> np.ndarray:
    """Grow ``num_parts`` balanced regions by parallel BFS.

    Seeds are spread uniformly at random; frontiers expand round-robin, each
    claiming unvisited neighbors until its size budget is met. Produces far
    lower edge cut than hashing on graphs with community structure — a cheap
    stand-in for METIS (which is not available offline).

    ``num_parts`` may exceed ``graph.num_vertices``: only the first
    ``min(num_parts, n)`` regions get a seed vertex and the surplus
    partitions stay empty — a legal (empty-shard) assignment downstream
    consumers like the sharded plane must represent, not an error.
    Every partition size stays within the ``ceil(n / num_parts)``
    budget.
    """
    if num_parts <= 0:
        raise GraphError("num_parts must be positive")
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    parts = np.full(n, -1, dtype=np.int64)
    budget = -(-n // num_parts)  # ceil
    sizes = np.zeros(num_parts, dtype=np.int64)

    seeds = rng.choice(n, size=min(num_parts, n), replace=False)
    frontiers: list[np.ndarray] = []
    for p, s in enumerate(seeds):
        parts[s] = p
        sizes[p] = 1
        frontiers.append(np.array([s], dtype=np.int64))

    sym = graph  # expand along out-edges; callers pass symmetrized graphs
    active = True
    while active:
        active = False
        for p in range(len(frontiers)):
            if sizes[p] >= budget or frontiers[p].size == 0:
                continue
            # All unvisited out-neighbors of the current frontier.
            f = frontiers[p]
            starts, ends = sym.indptr[f], sym.indptr[f + 1]
            total = int((ends - starts).sum())
            if total == 0:
                frontiers[p] = np.zeros(0, dtype=np.int64)
                continue
            neigh = np.concatenate(
                [sym.indices[s:e] for s, e in zip(starts, ends)])
            cand = np.unique(neigh)
            cand = cand[parts[cand] == -1]
            room = budget - sizes[p]
            if cand.size > room:
                cand = cand[:room]
            if cand.size:
                parts[cand] = p
                sizes[p] += cand.size
                frontiers[p] = cand
                active = True
            else:
                frontiers[p] = np.zeros(0, dtype=np.int64)

    # Unreached vertices (isolated or budget-starved): round-robin to the
    # smallest partitions.
    leftovers = np.flatnonzero(parts == -1)
    for v in leftovers:
        p = int(np.argmin(sizes))
        parts[v] = p
        sizes[p] += 1
    return parts


def halo(graph: CSRGraph, parts: np.ndarray, shard: int) -> np.ndarray:
    """Remote vertices partition ``shard``'s batches can touch.

    The unique out-neighbors of the vertices ``parts`` assigns to
    ``shard`` that live on *other* partitions — the vertices whose
    features a worker must fetch across the (simulated) interconnect.
    Sorted global ids; empty for an empty partition.
    """
    parts = np.asarray(parts, dtype=np.int64)
    owned_edges = np.repeat(parts == shard, graph.out_degrees)
    cand = np.unique(graph.indices[owned_edges])
    return cand[parts[cand] != shard]


@dataclass(frozen=True)
class PartitionQuality:
    """Partition metrics consumed by the distributed baselines.

    Attributes
    ----------
    edge_cut_fraction:
        Fraction of edges whose endpoints live in different partitions —
        proportional to the inter-node feature traffic DistDGL pays.
    replication_factor:
        Average number of partitions that must hold (a halo copy of) each
        vertex: ``sum_p |V_p ∪ halo_p| / |V|``.
    imbalance:
        ``max_p |V_p| / mean_p |V_p|`` — 1.0 is perfect balance.
    """

    edge_cut_fraction: float
    replication_factor: float
    imbalance: float


def partition_quality(graph: CSRGraph,
                      parts: np.ndarray) -> PartitionQuality:
    """Compute cut/replication/balance metrics for a vertex partition."""
    parts = np.asarray(parts, dtype=np.int64)
    if parts.shape != (graph.num_vertices,):
        raise GraphError("parts must have one entry per vertex")
    num_parts = int(parts.max()) + 1 if parts.size else 0
    src, dst = graph.edges()
    cut_mask = parts[src] != parts[dst]
    edge_cut = float(cut_mask.mean()) if src.size else 0.0

    sizes = np.bincount(parts, minlength=num_parts).astype(np.float64)
    imbalance = float(sizes.max() / sizes.mean()) if num_parts else 1.0

    # Replication: every cut edge forces the destination partition to hold a
    # halo copy of the source vertex. Count distinct (partition, src) pairs.
    if src.size:
        cut_src = src[cut_mask]
        cut_dst_part = parts[dst[cut_mask]]
        pairs = np.unique(cut_dst_part * np.int64(graph.num_vertices)
                          + cut_src)
        replicated = pairs.size
    else:
        replicated = 0
    replication = 1.0 + replicated / max(1, graph.num_vertices)
    return PartitionQuality(edge_cut_fraction=edge_cut,
                            replication_factor=float(replication),
                            imbalance=imbalance)
