"""GNN layers under the aggregate-update paradigm (paper §II-A).

Each layer is a pair (aggregate, update):

* :class:`GCNLayer` — paper Eq. 3: symmetric-normalized sum over
  ``N(v) ∪ {v}`` followed by a dense update + ReLU.
* :class:`SAGELayer` — paper Eq. 4: ``concat(h_v, mean(h_u)) @ W + b``
  followed by ReLU, computed without the concat: ``h_v`` and the mean
  each multiply their own row block of ``W``.

Both layers apply ReLU in place on the fresh GEMM output and keep that
output for the backward mask (:func:`~repro.nn.activations.relu_grad`);
no pre-activation copy is made or kept.

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
    update_inputs: tuple[np.ndarray, ...]  # row blocks of the update's input
    output: np.ndarray            # the layer's output, ReLU'd in place


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
        h = self.linear.forward(a)
        if self.activation:
            relu(h)
        return h, LayerCache(aggregator=aggregator, update_inputs=(a,),
                             output=h)

    def backward(self, cache: LayerCache, grad_out: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Reverse-order ops (paper §II-B: backward = same ops reversed).

        Accumulates ``dW``/``db`` and returns the gradient w.r.t.
        ``h_src``. With ``input_grad=False`` it stops at the parameters
        (no ``dz @ W.T``, no ``S^T @ da``) and returns ``None`` — what
        the model asks of its input-side layer, the functional twin of
        Eq. 10 omitting the layer-1 aggregation backward.
        """
        dz = relu_grad(cache.output, grad_out) \
            if self.activation else grad_out
        a, = cache.update_inputs
        da = self.linear.backward(a, dz, input_grad)
        return cache.aggregator.backward(da) if input_grad else None

    def zero_grad(self) -> None:
        self.linear.zero_grad()

    @property
    def num_params(self) -> int:
        return self.linear.num_params


class SAGELayer:
    """GraphSAGE layer with mean aggregator (paper Eq. 4).

    The update is ``concat(h_v, mean_{u∈N(v)} h_u) @ W + b`` with a
    ``(2 * in_dim, out_dim)`` weight, computed as two GEMMs against
    ``W``'s row blocks: ``h_v @ W[:in_dim] + mean @ W[in_dim:] + b``.
    No ``(|V^l|, 2 * in_dim)`` concat is formed, and the cache keeps
    ``h_v`` as a view of the caller's source rows.
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
        """Mean-aggregate, then update self rows and mean through their
        row blocks of ``W``. ``row_scales`` ``(num_src, 1)`` folds into
        the mean's edge weights and scales the self rows (module
        docstring)."""
        num_dst = aggregator.block.num_dst
        if h_src.shape[0] < num_dst:
            raise ShapeError("source rows fewer than destinations")
        if h_src.ndim != 2 or h_src.shape[1] != self.in_dim:
            raise ShapeError(
                f"expected (*, {self.in_dim}) input, got {h_src.shape}")
        m = aggregator.forward(h_src, row_scales)
        h_self = h_src[:num_dst] if row_scales is None \
            else h_src[:num_dst] * row_scales[:num_dst]
        W, k = self.linear.W, self.in_dim
        h = h_self @ W[:k]
        h += m @ W[k:]
        h += self.linear.b
        if self.activation:
            relu(h)
        return h, LayerCache(aggregator=aggregator,
                             update_inputs=(h_self, m), output=h)

    def backward(self, cache: LayerCache, grad_out: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Same contract as :meth:`GCNLayer.backward`. Each row block of
        ``dW`` accumulates its own input's product; the input gradient
        is the mean path's ``S^T @ (dz @ W[in_dim:].T)`` plus the self
        path's ``dz @ W[:in_dim].T`` on the destination rows."""
        dz = relu_grad(cache.output, grad_out) \
            if self.activation else grad_out
        h_self, m = cache.update_inputs
        if dz.shape != (m.shape[0], self.out_dim):
            raise ShapeError("grad_out shape mismatch")
        lin, k = self.linear, self.in_dim
        lin.dW[:k] += h_self.T @ dz
        lin.dW[k:] += m.T @ dz
        lin.db += dz.sum(axis=0)
        if not input_grad:
            return None
        dh_src = cache.aggregator.backward(dz @ lin.W[k:].T)
        dh_src[:h_self.shape[0]] += dz @ lin.W[:k].T
        return dh_src

    def zero_grad(self) -> None:
        self.linear.zero_grad()

    @property
    def num_params(self) -> int:
        return self.linear.num_params
