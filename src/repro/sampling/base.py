"""Mini-batch data structures and the sampler interface.

Layer convention (paper Table I): a mini-batch for an L-layer GNN holds node
sets ``V^0 ⊇ V^1 ⊇ ... ⊇ V^L`` (``V^L`` = targets, ``V^0`` = input vertices
whose features are loaded) and edge sets ``E^l`` connecting ``V^{l-1}`` to
``V^l``. :class:`LayerBlock` ``l`` (0-indexed as ``blocks[l-1]``) stores
``E^l`` with *local* indices: ``src_local`` indexes into ``node_ids[l-1]``,
``dst_local`` into ``node_ids[l]``.

Alignment invariant: ``node_ids[l-1][:len(node_ids[l])] == node_ids[l]`` —
the destination vertices of a layer are the first entries of its source
list, so hidden states can be sliced instead of re-gathered (the standard
"block" layout, also what PyG/DGL produce).

Relabelling global ids to local positions never sorts. Each sampler owns
one ``int64[|V|]`` position map, ``-1`` everywhere between calls. A call
writes ``pos[v] = i`` for the ``i``-th vertex of its node list, reads
local indices back with one fancy-index gather, and resets every entry
it touched before returning — raising included. Because each layer's
node list extends the next one's, a vertex keeps its position across
hops and one map serves every layer (DGL's NodeFlow keeps the same
per-layer parent-id offsets). The map is per instance and unlocked, like
the RNG stream: a sampler is driven by one thread, as every training
plane drives its session's sampler (the in-process producer or the
caller's thread; a process worker owns its own).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..config import S_FEAT_BYTES
from ..errors import SamplingError


@dataclass(frozen=True)
class LayerBlock:
    """Edges of one GNN layer in local coordinates.

    Attributes
    ----------
    src_local:
        ``(num_edges,)`` indices into the previous layer's node list.
    dst_local:
        ``(num_edges,)`` indices into this layer's node list.
    num_src:
        Size of the previous layer's node list ``|V^{l-1}|``.
    num_dst:
        Size of this layer's node list ``|V^l|``.
    """

    src_local: np.ndarray
    dst_local: np.ndarray
    num_src: int
    num_dst: int

    def __post_init__(self) -> None:
        if self.src_local.shape != self.dst_local.shape:
            raise SamplingError("src_local and dst_local must match")
        if self.src_local.size:
            if self.src_local.min() < 0 or self.src_local.max() >= \
                    self.num_src:
                raise SamplingError("src_local out of range")
            if self.dst_local.min() < 0 or self.dst_local.max() >= \
                    self.num_dst:
                raise SamplingError("dst_local out of range")
        if self.num_dst > self.num_src:
            raise SamplingError(
                "layer destinations must be a prefix of sources "
                f"(num_dst={self.num_dst} > num_src={self.num_src})")

    @property
    def num_edges(self) -> int:
        """``|E^l|``."""
        return int(self.src_local.size)


@dataclass(frozen=True)
class MiniBatchStats:
    """Size statistics of a mini-batch — the inputs to the timing models.

    These are exactly the quantities in the paper's performance model
    (Eq. 5-13): ``|V^l|``, ``|E^l|``, and derived traffic sizes.
    """

    num_nodes_per_layer: tuple[int, ...]   # |V^0| ... |V^L|
    num_edges_per_layer: tuple[int, ...]   # |E^1| ... |E^L|
    feature_dim: int                        # f^0

    @property
    def num_layers(self) -> int:
        return len(self.num_edges_per_layer)

    @property
    def num_input_nodes(self) -> int:
        """``|V^0|`` — vertices whose features must be loaded."""
        return self.num_nodes_per_layer[0]

    @property
    def num_targets(self) -> int:
        """``|V^L]``."""
        return self.num_nodes_per_layer[-1]

    @property
    def total_edges(self) -> int:
        """Σ_l |E^l| — the MTEPS numerator contribution (paper Eq. 5)."""
        return sum(self.num_edges_per_layer)

    @property
    def input_feature_bytes(self) -> int:
        """``|V^0| × f^0 × S_feat`` — Feature Loading / Transfer traffic."""
        return self.num_input_nodes * self.feature_dim * S_FEAT_BYTES

    def scaled(self, factor: float) -> "MiniBatchStats":
        """Stats for a hypothetical batch ``factor`` times this size.

        The DRM engine re-sizes trainer workloads; all per-batch quantities
        scale near-linearly with target count in neighbor sampling.
        """
        if factor <= 0:
            raise SamplingError("scale factor must be positive")
        return MiniBatchStats(
            num_nodes_per_layer=tuple(
                max(1, int(round(v * factor)))
                for v in self.num_nodes_per_layer),
            num_edges_per_layer=tuple(
                max(1, int(round(e * factor)))
                for e in self.num_edges_per_layer),
            feature_dim=self.feature_dim,
        )


@dataclass(frozen=True)
class MiniBatch:
    """A sampled computational graph plus the data needed to train on it.

    Attributes
    ----------
    node_ids:
        ``L + 1`` arrays of *global* vertex ids, input side first
        (``node_ids[0] == V^0``, ``node_ids[-1] == V^L`` = targets).
    blocks:
        ``L`` :class:`LayerBlock` objects; ``blocks[l-1]`` holds ``E^l``.
    feature_dim:
        ``f^0`` of the dataset (for stats; features themselves are attached
        later by the Feature Loader).
    """

    node_ids: tuple[np.ndarray, ...]
    blocks: tuple[LayerBlock, ...]
    feature_dim: int

    def __post_init__(self) -> None:
        if len(self.node_ids) != len(self.blocks) + 1:
            raise SamplingError(
                "need exactly one more node list than blocks")
        for l, blk in enumerate(self.blocks):
            if blk.num_src != self.node_ids[l].size:
                raise SamplingError(
                    f"block {l}: num_src != |node_ids[{l}]|")
            if blk.num_dst != self.node_ids[l + 1].size:
                raise SamplingError(
                    f"block {l}: num_dst != |node_ids[{l + 1}]|")
        # Alignment invariant: destinations are a prefix of sources.
        for l in range(len(self.blocks)):
            nxt, cur = self.node_ids[l + 1], self.node_ids[l]
            if not np.array_equal(cur[:nxt.size], nxt):
                raise SamplingError(
                    f"node_ids[{l + 1}] must be a prefix of node_ids[{l}]")

    @property
    def num_layers(self) -> int:
        """Number of GNN layers L."""
        return len(self.blocks)

    @property
    def targets(self) -> np.ndarray:
        """Global ids of the batch's target vertices (``V^L``)."""
        return self.node_ids[-1]

    @property
    def input_nodes(self) -> np.ndarray:
        """Global ids whose features the Feature Loader must gather."""
        return self.node_ids[0]

    def stats(self) -> MiniBatchStats:
        """Size statistics for the timing models."""
        return MiniBatchStats(
            num_nodes_per_layer=tuple(ids.size for ids in self.node_ids),
            num_edges_per_layer=tuple(b.num_edges for b in self.blocks),
            feature_dim=self.feature_dim,
        )

    def validate(self) -> None:
        """Re-run all construction checks (post-init already enforces them;
        this re-checks after any external mutation of the arrays)."""
        MiniBatch(self.node_ids, self.blocks, self.feature_dim)


class Sampler(abc.ABC):
    """Produces :class:`MiniBatch` objects from a graph.

    Samplers are deterministic given their seed and are restartable:
    :meth:`epoch_batches` yields one epoch's worth of batches in a shuffled
    order; :meth:`sample` draws a single batch for ad-hoc use.
    """

    @abc.abstractmethod
    def sample(self, target_ids: np.ndarray) -> MiniBatch:
        """Build the computational graph for the given target vertices."""

    @abc.abstractmethod
    def epoch_batches(self, minibatch_size: int,
                      seed: int | None = None) -> Iterator[MiniBatch]:
        """Yield mini-batches covering the training set once."""


def check_target_ids(target_ids, num_vertices: int) -> np.ndarray:
    """``target_ids`` as ``int64``, or :class:`SamplingError` unless they
    are a non-empty 1-D integer array of ids in ``[0, num_vertices)``.

    The samplers' front door: it runs before any position-map write, so
    a bad id can neither alias another vertex's slot nor leak a raw
    ``IndexError``.
    """
    ids = np.asarray(target_ids)
    if ids.size == 0:
        raise SamplingError("cannot sample an empty batch")
    if ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise SamplingError("target ids must be a 1-D integer array, "
                            f"got {ids.dtype} with shape {ids.shape}")
    if ids.min() < 0 or ids.max() >= num_vertices:
        raise SamplingError(
            f"target id out of range [0, {num_vertices})")
    return ids.astype(np.int64, copy=False)


def relabel_hop(pos: np.ndarray, frontier: np.ndarray,
                neigh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One hop's relabel through the position map ``pos``.

    On entry ``pos[frontier] == arange(frontier.size)`` and every other
    entry is ``-1``. Returns ``(layer, local)``: ``frontier`` followed by
    the ids of ``neigh`` not in it, in first-occurrence order, and each
    ``neigh`` id's position in ``layer``. On return ``pos[layer] ==
    arange(layer.size)``, so the same map serves the next hop.
    """
    new = neigh[pos[neigh] < 0]
    order = np.arange(new.size)
    # Reverse scatter: the last write to a repeated index wins, so each
    # id is left holding the index of its first occurrence.
    pos[new[::-1]] = order[::-1]
    new = new[pos[new] == order]
    pos[new] = np.arange(frontier.size, frontier.size + new.size)
    return np.concatenate([frontier, new]), pos[neigh]
