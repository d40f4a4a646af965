"""GNN layers under the aggregate-update paradigm (paper §II-A).

Each layer is a pair (aggregate, update):

* :class:`GCNLayer` — paper Eq. 3: symmetric-normalized sum over
  ``N(v) ∪ {v}`` followed by a dense update + ReLU.
* :class:`SAGELayer` — paper Eq. 4: ``concat(h_v, mean(h_u))`` followed by
  a dense update + ReLU.

Layers are minibatch-agnostic: an aggregator is built per
:class:`~repro.sampling.base.LayerBlock` via :meth:`build_aggregator` and
passed to ``forward``/``backward`` together with an explicit cache object,
so the same layer instance can be evaluated concurrently by multiple
trainers (the hybrid system runs several trainers per iteration on model
replicas, but tests also exercise shared instances).

**Folded int8 scales.** Both layers aggregate before they update, so an
input layer handed int8 codes (cast to float) plus ``row_scales``, one
per source row, computes what it would on the dequantized rows
``codes * row_scales``: the aggregation multiplies its edge weights by
``row_scales[src]``, and SAGE's self rows ``h_src[:num_dst]`` take
their scale element-wise — bit-equal to the dequantized rows. Only the
rounding of the aggregation differs. ``backward`` returns the gradient
with respect to the dequantized rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..sampling.base import LayerBlock
from .activations import relu, relu_grad
from .aggregators import (
    SparseAggregator,
    add_self_edges,
    gcn_edge_weights,
    mean_edge_weights,
)
from .linear import Linear


@dataclass
class LayerCache:
    """Intermediates one forward pass must keep for its backward pass."""

    aggregator: SparseAggregator
    update_input: np.ndarray      # input of the dense update (a_v)
    pre_activation: np.ndarray    # z = a W + b (None-equivalent if linear)


class GCNLayer:
    """Graph Convolutional Network layer (paper Eq. 3).

    Parameters
    ----------
    in_dim / out_dim:
        Feature lengths f^{l-1} / f^l.
    rng:
        Initializer RNG.
    activation:
        Apply ReLU after the update (the final classification layer of a
        model sets this False so logits feed softmax directly).
    """

    aggregation = "gcn"

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator, activation: bool = True) -> None:
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.linear = Linear(in_dim, out_dim, rng)
        self.activation = activation

    # -- aggregation structure ------------------------------------------
    def build_aggregator(self, block: LayerBlock,
                         src_global_ids: np.ndarray,
                         dst_global_ids: np.ndarray,
                         global_degrees: np.ndarray | None
                         ) -> SparseAggregator:
        """Aggregator over ``N(v) ∪ {v}`` with 1/sqrt(D(u)D(v)) weights.

        ``global_degrees`` may be None, in which case uniform degrees are
        assumed (useful for gradcheck on toy blocks).
        """
        blk = add_self_edges(block)
        if global_degrees is None:
            weights = np.ones(blk.num_edges)
        else:
            global_degrees = np.asarray(global_degrees)
            src_deg = global_degrees[src_global_ids[blk.src_local]]
            dst_deg = global_degrees[dst_global_ids[blk.dst_local]]
            weights = gcn_edge_weights(blk, src_deg, dst_deg)
        return SparseAggregator(blk, weights.astype(self.linear.W.dtype))

    # -- forward / backward ---------------------------------------------
    def forward(self, aggregator: SparseAggregator, h_src: np.ndarray,
                row_scales: np.ndarray | None = None
                ) -> tuple[np.ndarray, LayerCache]:
        """Aggregate then update; returns (h_out, cache).
        ``row_scales`` ``(num_src, 1)`` folds into the edge weights
        (module docstring)."""
        a = aggregator.forward(h_src, row_scales)
        z = self.linear.forward(a)
        h = relu(z) if self.activation else z
        return h, LayerCache(aggregator=aggregator, update_input=a,
                             pre_activation=z)

    def backward(self, cache: LayerCache, grad_out: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Reverse-order ops (paper §II-B: backward = same ops reversed).

        Accumulates ``dW``/``db`` and returns the gradient w.r.t.
        ``h_src``. With ``input_grad=False`` it stops at the parameters
        (no ``dz @ W.T``, no ``S^T @ da``) and returns ``None`` — what
        the model asks of its input-side layer, the functional twin of
        Eq. 10 omitting the layer-1 aggregation backward.
        """
        dz = relu_grad(cache.pre_activation, grad_out) \
            if self.activation else grad_out
        da = self.linear.backward(cache.update_input, dz, input_grad)
        return cache.aggregator.backward(da) if input_grad else None

    def zero_grad(self) -> None:
        self.linear.zero_grad()

    @property
    def num_params(self) -> int:
        return self.linear.num_params


class SAGELayer:
    """GraphSAGE layer with mean aggregator (paper Eq. 4).

    The update consumes ``concat(h_v, mean_{u∈N(v)} h_u)``; the linear
    weight is therefore ``(2 * in_dim, out_dim)``.
    """

    aggregation = "mean"

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator, activation: bool = True) -> None:
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.linear = Linear(2 * in_dim, out_dim, rng)
        self.activation = activation

    def build_aggregator(self, block: LayerBlock,
                         src_global_ids: np.ndarray,
                         dst_global_ids: np.ndarray,
                         global_degrees: np.ndarray | None
                         ) -> SparseAggregator:
        """Neighbor-mean aggregator (global degrees are not needed)."""
        return SparseAggregator(
            block, mean_edge_weights(block).astype(self.linear.W.dtype))

    def forward(self, aggregator: SparseAggregator, h_src: np.ndarray,
                row_scales: np.ndarray | None = None
                ) -> tuple[np.ndarray, LayerCache]:
        """Mean-aggregate, concat with self features, update.
        ``row_scales`` ``(num_src, 1)`` folds into the mean's edge
        weights and scales the self rows (module docstring)."""
        num_dst = aggregator.block.num_dst
        if h_src.shape[0] < num_dst:
            raise ShapeError("source rows fewer than destinations")
        m = aggregator.forward(h_src, row_scales)
        h_self = h_src[:num_dst] if row_scales is None \
            else h_src[:num_dst] * row_scales[:num_dst]
        a = np.concatenate([h_self, m], axis=1)
        z = self.linear.forward(a)
        h = relu(z) if self.activation else z
        return h, LayerCache(aggregator=aggregator, update_input=a,
                             pre_activation=z)

    def backward(self, cache: LayerCache, grad_out: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Same contract as :meth:`GCNLayer.backward`; the input gradient
        is the mean path's ``S^T @ d_mean`` plus the self path."""
        dz = relu_grad(cache.pre_activation, grad_out) \
            if self.activation else grad_out
        da = self.linear.backward(cache.update_input, dz, input_grad)
        if not input_grad:
            return None
        d_self = da[:, :self.in_dim]
        d_mean = da[:, self.in_dim:]
        dh_src = cache.aggregator.backward(d_mean)
        num_dst = cache.aggregator.block.num_dst
        dh_src[:num_dst] += d_self
        return dh_src

    def zero_grad(self) -> None:
        self.linear.zero_grad()

    @property
    def num_params(self) -> int:
        return self.linear.num_params
