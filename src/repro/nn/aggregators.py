"""Sparse feature aggregation (paper Eq. 1).

Feature aggregation is the irregular-memory-access phase of GNN training
(paper §II-A). :class:`SparseAggregator` computes it as a SciPy CSR
sparse matmul: one BLAS-like spmm per layer for forward and one
through the free transposed (CSC) view of the same matrix for
backward. The FPGA computes the same Eq.-1 sums as a
scatter-gather stream over the edge list (paper §IV-C, Fig. 6); tests
hold the spmm to an edge-serial ``np.add.at`` sum of the messages.

Weight helpers produce the edge coefficient vectors for the two models:
:func:`gcn_edge_weights` implements the symmetric ``1/sqrt(D(u)D(v))``
normalization of paper Eq. 3, :func:`mean_edge_weights` the neighbor-mean
of paper Eq. 4.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import ShapeError
from ..sampling.base import LayerBlock


class SparseAggregator:
    """Weighted sum aggregation ``A = S @ H`` for one layer block.

    ``S`` is the ``(num_dst, num_src)`` sparse matrix with
    ``S[dst, src] = w(edge)``; duplicate ``(dst, src)`` entries are summed
    (scipy semantics), which matches multi-edge aggregation.

    :meth:`backward` multiplies through ``matrix.T``, SciPy's CSC view
    of the same arrays: no transposed copy is built or cached, by
    training or forward-only callers alike.

    The CSR takes the edge weights' dtype: the owning layer passes them
    in its parameter dtype, so spmm does not promote its features.
    """

    def __init__(self, block: LayerBlock,
                 edge_weights: np.ndarray | None = None) -> None:
        if edge_weights is None:
            edge_weights = np.ones(block.num_edges)
        edge_weights = np.asarray(edge_weights)
        if edge_weights.shape != (block.num_edges,):
            raise ShapeError("edge_weights must have one entry per edge")
        self.block = block
        self.matrix = _csr(block, edge_weights)

    def forward(self, h_src: np.ndarray,
                row_scales: np.ndarray | None = None) -> np.ndarray:
        """Aggregate source features into destination rows.

        With ``row_scales`` (one per source row) it aggregates
        ``diag(row_scales) @ h_src`` without forming it: the scales
        ride on the edge weights, ``(S · diag(s)) @ h_src``, an
        edge-sized multiply instead of a feature-sized one.
        """
        if h_src.shape[0] != self.block.num_src:
            raise ShapeError(
                f"expected {self.block.num_src} source rows, "
                f"got {h_src.shape[0]}")
        if row_scales is None:
            return self.matrix @ h_src
        m = self.matrix
        scaled = sp.csr_matrix(
            (m.data * row_scales.ravel()[m.indices], m.indices, m.indptr),
            shape=m.shape)
        return scaled @ h_src

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. source features: ``S^T @ dA``."""
        if grad_out.shape[0] != self.block.num_dst:
            raise ShapeError(
                f"expected {self.block.num_dst} dest rows, "
                f"got {grad_out.shape[0]}")
        return self.matrix.T @ grad_out


def _csr(block: LayerBlock, edge_weights: np.ndarray) -> sp.csr_matrix:
    """The block's ``S`` in canonical CSR form, built directly.

    SciPy's COO route (``csr_matrix((w, (dst, src)))``) converts,
    sorts each row's columns and sums duplicates: a fixed cost per call
    larger than the spmm itself on a serving-sized block. Without
    duplicate ``(dst, src)`` pairs its result is exactly the edges in
    ``(dst, src)`` order, which one argsort of the packed key gives; a
    block with duplicates keeps the COO route, whose summation order
    the products depend on. The block's own checks already hold every
    local id in range.
    """
    shape = (block.num_dst, block.num_src)
    dst = block.dst_local.astype(np.int64, copy=False)
    key = dst * block.num_src + block.src_local
    order = np.argsort(key, kind="stable")
    key = key[order]
    if (key[1:] == key[:-1]).any():
        return sp.csr_matrix(
            (edge_weights, (block.dst_local, block.src_local)),
            shape=shape)
    # The index dtype the COO route picks; handing it over saves the
    # constructor a cast of both index arrays.
    index_dtype = np.int32 if max(*shape, key.size) < 2**31 else np.int64
    indptr = np.zeros(block.num_dst + 1, dtype=index_dtype)
    np.cumsum(np.bincount(dst, minlength=block.num_dst),
              out=indptr[1:])
    indices = block.src_local[order].astype(index_dtype)
    return sp.csr_matrix((edge_weights[order], indices, indptr),
                         shape=shape)


def mean_edge_weights(block: LayerBlock) -> np.ndarray:
    """Per-edge weights realizing the neighbor mean of paper Eq. 4.

    Each destination's incident edges get weight ``1 / indeg(dst)`` within
    the block. Destinations with no sampled neighbors contribute a zero
    mean (no edges exist, so no weights are needed).
    """
    indeg = np.bincount(block.dst_local, minlength=block.num_dst)
    return 1.0 / np.maximum(indeg, 1)[block.dst_local]


def gcn_edge_weights(block: LayerBlock, src_global_degree: np.ndarray,
                     dst_global_degree: np.ndarray) -> np.ndarray:
    """Per-edge weights ``1/sqrt(D(u) D(v))`` of paper Eq. 3.

    Degrees are *global* graph degrees (+1 for the implicit self-loop, the
    standard Kipf-Welling normalization), indexed per edge endpoint.

    Parameters
    ----------
    src_global_degree / dst_global_degree:
        Degree of each edge's source / destination vertex in the full
        graph, aligned with the block's edge arrays.
    """
    src_d = np.asarray(src_global_degree) + 1.0
    dst_d = np.asarray(dst_global_degree) + 1.0
    if src_d.shape != (block.num_edges,) or dst_d.shape != \
            (block.num_edges,):
        raise ShapeError("degree arrays must have one entry per edge")
    return 1.0 / np.sqrt(src_d * dst_d)


def add_self_edges(block: LayerBlock) -> LayerBlock:
    """Return a block with self-edges ``(i, i)`` appended for each dst.

    Valid because destination vertices are a prefix of the source list
    (MiniBatch alignment invariant), so local id ``i < num_dst`` denotes
    the same vertex on both sides. GCN aggregates over ``N(v) ∪ {v}``
    (paper Eq. 1); this materializes the ``{v}`` term.
    """
    loops = np.arange(block.num_dst, dtype=np.int64)
    return LayerBlock(
        src_local=np.concatenate([block.src_local, loops]),
        dst_local=np.concatenate([block.dst_local, loops]),
        num_src=block.num_src,
        num_dst=block.num_dst,
    )
