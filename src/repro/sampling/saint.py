"""GraphSAINT samplers (paper cite [29], Zeng et al., ICLR 2020).

GraphSAINT trains on *induced subgraphs* rather than layered neighborhoods:
one vertex set ``S`` is drawn per batch and every GNN layer runs on the same
induced graph ``G[S]``. We express such a batch in the common
:class:`~repro.sampling.base.MiniBatch` format by repeating the induced
block for every layer, with identical node lists — so the rest of the
system (trainers, kernel models, runtime) is sampler-agnostic, exactly the
property the paper's Sampler component needs ("executing a sampling
algorithm [2], [29]").

Three samplers from the GraphSAINT paper are provided: node, edge, and
random-walk.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import SamplingError
from ..graph.csr import CSRGraph
from .base import LayerBlock, MiniBatch, Sampler, check_target_ids
from .neighbor import _gather_all_neighbors


def induced_block(graph: CSRGraph, nodes: np.ndarray,
                  pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges of ``G[nodes]`` in local coordinates (vectorized).

    Returns ``(src_local, dst_local)``; ``nodes`` must be unique. ``pos``
    is an all ``-1`` position map over the graph's vertices (see
    :mod:`repro.sampling.base`), left all ``-1`` again on return.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    seg, neigh = _gather_all_neighbors(graph.indptr, graph.indices, nodes)
    try:
        pos[nodes] = np.arange(nodes.size)
        local = pos[neigh]
    finally:
        pos[nodes] = -1
    # Graph direction is kept: src = nodes[seg] (source of the
    # out-edge), dst = neigh, for each neighbor inside the subgraph.
    member = local >= 0
    return seg[member], local[member]


class _SaintBase(Sampler):
    """Shared plumbing for the three GraphSAINT samplers."""

    def __init__(self, graph: CSRGraph, train_ids: np.ndarray,
                 num_layers: int, feature_dim: int, seed: int = 0) -> None:
        if num_layers < 1:
            raise SamplingError("num_layers must be >= 1")
        self.graph = graph
        self.train_ids = np.asarray(train_ids, dtype=np.int64)
        if self.train_ids.size == 0:
            raise SamplingError("train_ids must be non-empty")
        self.num_layers = num_layers
        self.feature_dim = int(feature_dim)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._pos = np.full(graph.num_vertices, -1, dtype=np.int64)

    def sample(self, target_ids: np.ndarray) -> MiniBatch:
        """Induce the subgraph on the given vertex set."""
        nodes = np.unique(check_target_ids(target_ids,
                                           self.graph.num_vertices))
        src_local, dst_local = induced_block(self.graph, nodes, self._pos)
        block = LayerBlock(src_local=src_local, dst_local=dst_local,
                           num_src=nodes.size, num_dst=nodes.size)
        return MiniBatch(node_ids=tuple([nodes] * (self.num_layers + 1)),
                         blocks=tuple([block] * self.num_layers),
                         feature_dim=self.feature_dim)

    def _draw(self, minibatch_size: int) -> np.ndarray:
        raise NotImplementedError

    def epoch_batches(self, minibatch_size: int,
                      seed: int | None = None) -> Iterator[MiniBatch]:
        """Yield enough subgraph batches to cover the train set in
        expectation (``ceil(|train| / minibatch_size)`` draws)."""
        if minibatch_size <= 0:
            raise SamplingError("minibatch_size must be positive")
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        n_batches = max(1, -(-self.train_ids.size // minibatch_size))
        for _ in range(n_batches):
            yield self.sample(self._draw(minibatch_size))


class SaintNodeSampler(_SaintBase):
    """Node sampler: draw vertices with probability ∝ degree."""

    def _draw(self, minibatch_size: int) -> np.ndarray:
        degs = self.graph.out_degrees.astype(np.float64) + 1.0
        p = degs / degs.sum()
        return self._rng.choice(self.graph.num_vertices,
                                size=min(minibatch_size,
                                         self.graph.num_vertices),
                                replace=False, p=p)


class SaintEdgeSampler(_SaintBase):
    """Edge sampler: draw edges uniformly; batch = endpoint union."""

    def _draw(self, minibatch_size: int) -> np.ndarray:
        m = self.graph.num_edges
        if m == 0:
            raise SamplingError("graph has no edges")
        n_edges = max(1, minibatch_size // 2)
        eids = self._rng.integers(0, m, size=n_edges)
        dst = self.graph.indices[eids]
        # Recover sources by searching indptr.
        src = np.searchsorted(self.graph.indptr, eids, side="right") - 1
        return np.union1d(src, dst)


class SaintRWSampler(_SaintBase):
    """Random-walk sampler: roots + fixed-length uniform walks.

    Parameters
    ----------
    walk_length:
        Steps per walk (GraphSAINT default 2-4).
    """

    def __init__(self, graph: CSRGraph, train_ids: np.ndarray,
                 num_layers: int, feature_dim: int, seed: int = 0,
                 walk_length: int = 3) -> None:
        super().__init__(graph, train_ids, num_layers, feature_dim, seed)
        if walk_length < 1:
            raise SamplingError("walk_length must be >= 1")
        self.walk_length = walk_length

    def _draw(self, minibatch_size: int) -> np.ndarray:
        n_roots = max(1, minibatch_size // (self.walk_length + 1))
        roots = self._rng.choice(self.train_ids, size=min(
            n_roots, self.train_ids.size), replace=False)
        visited = [roots]
        cur = roots
        indptr, indices = self.graph.indptr, self.graph.indices
        for _ in range(self.walk_length):
            deg = indptr[cur + 1] - indptr[cur]
            alive = deg > 0
            nxt = cur.copy()
            if alive.any():
                offs = (self._rng.random(int(alive.sum()))
                        * deg[alive]).astype(np.int64)
                nxt[alive] = indices[indptr[cur[alive]] + offs]
            visited.append(nxt)
            cur = nxt
        return np.unique(np.concatenate(visited))
