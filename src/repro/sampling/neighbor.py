"""GraphSAGE neighbor sampler (paper [2]; the sampler of all experiments).

Sampling proceeds target-side first: starting from the batch targets
``V^L``, each hop ``l = L..1`` draws up to ``fanout[L - l]`` neighbors of
every vertex in ``V^l``, forming ``E^l`` and ``V^{l-1} = V^l ∪ sampled``.

Vectorization strategy (no per-vertex Python loops):

* vertices with degree ``<= fanout`` contribute *all* their edges (exact
  without-replacement semantics);
* vertices with degree ``> fanout`` draw ``fanout`` neighbor offsets with
  replacement in one 2-D array op, then duplicate ``(src, dst)`` pairs are
  coalesced per row: each node's draws are sorted in place along the row
  and the first of each run of equal ids is kept, so a node's sampled
  neighbors come out in ascending id order. For ``degree >> fanout`` the
  expected duplicate loss is ``~fanout² / (2·degree)`` — negligible, and
  it never biases aggregation because duplicates are removed rather than
  double-counted.

The per-hop edge budget therefore matches the paper's model:
``|E^l| ≈ Σ_{v ∈ V^l} min(deg(v), fanout)``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import SamplingError
from ..graph.csr import CSRGraph
from .base import (
    LayerBlock,
    MiniBatch,
    Sampler,
    check_target_ids,
    relabel_hop,
)


def _gather_all_neighbors(indptr: np.ndarray, indices: np.ndarray,
                          nodes: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """All (position-in-`nodes`, neighbor) pairs, fully vectorized."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return (np.zeros(0, dtype=np.int64),) * 2
    seg = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
    seg_start = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.int64) - seg_start
    neigh = indices[starts[seg] + within]
    return seg, neigh


def _sample_capped_neighbors(indptr: np.ndarray, indices: np.ndarray,
                             nodes: np.ndarray, fanout: int,
                             rng: np.random.Generator
                             ) -> tuple[np.ndarray, np.ndarray]:
    """(position, neighbor) pairs with per-node cap ``fanout``."""
    deg = indptr[nodes + 1] - indptr[nodes]
    small = deg <= fanout

    seg_parts: list[np.ndarray] = []
    neigh_parts: list[np.ndarray] = []

    small_nodes = nodes[small]
    if small_nodes.size:
        seg_s, neigh_s = _gather_all_neighbors(indptr, indices, small_nodes)
        # Map back to positions in the original `nodes` array.
        pos_small = np.flatnonzero(small)
        seg_parts.append(pos_small[seg_s])
        neigh_parts.append(neigh_s)

    big_mask = ~small
    big_nodes = nodes[big_mask]
    if big_nodes.size:
        deg_big = deg[big_mask].astype(np.float64)
        offs = (rng.random((big_nodes.size, fanout))
                * deg_big[:, None]).astype(np.int64)
        neigh_b = indices[indptr[big_nodes][:, None] + offs]
        # Coalesce duplicate (dst, src) pairs drawn with replacement:
        # sort each node's draws and keep the first of each run.
        neigh_b.sort(axis=1)
        flat = neigh_b.ravel()
        keep = np.empty(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=keep[1:])
        keep[::fanout] = True       # each row's first draw
        seg_parts.append(np.repeat(np.flatnonzero(big_mask), fanout)[keep])
        neigh_parts.append(flat[keep])

    if not seg_parts:
        return (np.zeros(0, dtype=np.int64),) * 2
    return np.concatenate(seg_parts), np.concatenate(neigh_parts)


class NeighborSampler(Sampler):
    """Layered uniform neighbor sampler.

    Parameters
    ----------
    graph:
        Topology to sample from (symmetrize first for undirected semantics).
    train_ids:
        Global ids eligible as batch targets.
    fanouts:
        Per-hop sample sizes, target-side first (paper: ``(25, 10)`` — but
        note the paper applies 25 at the hop nearest the input; order only
        permutes |E^l| between layers, and we follow the PyG convention of
        target-side first).
    feature_dim:
        ``f^0`` recorded on produced batches.
    seed:
        Base seed; each sampled batch advances the stream deterministically.
    """

    def __init__(self, graph: CSRGraph, train_ids: np.ndarray,
                 fanouts: tuple[int, ...], feature_dim: int,
                 seed: int = 0) -> None:
        if len(fanouts) == 0 or any(f <= 0 for f in fanouts):
            raise SamplingError("fanouts must be positive and non-empty")
        train_ids = np.asarray(train_ids, dtype=np.int64)
        if train_ids.size == 0:
            raise SamplingError("train_ids must be non-empty")
        if train_ids.min() < 0 or train_ids.max() >= graph.num_vertices:
            raise SamplingError("train id out of range")
        self.graph = graph
        self.train_ids = train_ids
        self.fanouts = tuple(int(f) for f in fanouts)
        self.feature_dim = int(feature_dim)
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        #: The position map (module docstring): -1 between calls.
        self._pos = np.full(graph.num_vertices, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    def sample(self, target_ids: np.ndarray) -> MiniBatch:
        """Build the L-hop computational graph for ``target_ids``."""
        targets = check_target_ids(target_ids, self.graph.num_vertices)
        indptr, indices = self.graph.indptr, self.graph.indices
        node_lists: list[np.ndarray] = [targets]
        blocks: list[LayerBlock] = []
        pos, frontier, neigh = self._pos, targets, targets[:0]
        try:
            order = np.arange(targets.size)
            pos[targets] = order
            if (pos[targets] != order).any():
                raise SamplingError("target ids must be unique")
            # Hop h (h=0 nearest the targets) builds blocks[L-1-h]; a
            # destination's local index is its position in `frontier`.
            for fanout in self.fanouts:
                seg, neigh = _sample_capped_neighbors(
                    indptr, indices, frontier, fanout, self._rng)
                prev, src_local = relabel_hop(pos, frontier, neigh)
                blocks.append(LayerBlock(
                    src_local=src_local, dst_local=seg,
                    num_src=prev.size, num_dst=frontier.size))
                node_lists.append(prev)
                frontier = prev
        except BaseException:
            pos[neigh] = -1     # a hop that raised before `frontier` moved
            raise
        finally:
            pos[frontier] = -1
        # Target-side first so far; MiniBatch wants input-side first.
        return MiniBatch(node_ids=tuple(reversed(node_lists)),
                         blocks=tuple(reversed(blocks)),
                         feature_dim=self.feature_dim)

    # ------------------------------------------------------------------
    def epoch_batches(self, minibatch_size: int,
                      seed: int | None = None) -> Iterator[MiniBatch]:
        """Shuffle the train set and yield batches of ``minibatch_size``.

        The final short batch is kept (like PyG's default) so every train
        vertex is visited once per epoch.
        """
        if minibatch_size <= 0:
            raise SamplingError("minibatch_size must be positive")
        rng = np.random.default_rng(self.seed if seed is None else seed)
        perm = rng.permutation(self.train_ids)
        for start in range(0, perm.size, minibatch_size):
            yield self.sample(perm[start:start + minibatch_size])
