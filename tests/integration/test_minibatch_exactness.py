"""Exactness of mini-batch computation against direct dense reference.

For small graphs we can evaluate GCN/SAGE layers directly with dense
matrix algebra over the *full* graph and compare against the mini-batch
block computation — verifying the sampler's local-index bookkeeping and
the layers' aggregation semantics end-to-end. The models are float64
copies: the subject here is sampling and aggregation, not rounding.
"""

import numpy as np
import pytest

from repro.config import layer_dims
from repro.graph.csr import CSRGraph
from repro.nn.gradcheck import float64_copy
from repro.nn.models import build_model
from repro.sampling.full import FullBatchSampler
from repro.sampling.neighbor import NeighborSampler


def _dense_adj(graph: CSRGraph) -> np.ndarray:
    A = np.zeros((graph.num_vertices, graph.num_vertices))
    src, dst = graph.edges()
    np.add.at(A, (dst, src), 1.0)
    return A


def _dense_gcn_layer(A, deg, H, W, b, act=True):
    Ahat = A + np.eye(A.shape[0])
    d = deg + 1.0
    norm = 1.0 / np.sqrt(np.outer(d, d))
    Z = (Ahat * norm) @ H @ W + b
    return np.maximum(Z, 0) if act else Z


def _dense_sage_layer(A, H, W, b, act=True):
    deg = A.sum(axis=1, keepdims=True)
    mean = (A @ H) / np.maximum(deg, 1.0)
    Z = np.concatenate([H, mean], axis=1) @ W + b
    return np.maximum(Z, 0) if act else Z


@pytest.fixture()
def small_graph():
    rng = np.random.default_rng(5)
    src = rng.integers(0, 30, 150)
    dst = rng.integers(0, 30, 150)
    keep = src != dst
    return CSRGraph.from_edges(src[keep], dst[keep], 30,
                               dedup=True).symmetrize()


@pytest.mark.parametrize("model_name", ["gcn", "sage"])
def test_full_batch_matches_dense_reference(small_graph, model_name):
    n = small_graph.num_vertices
    f0, f1, classes = 6, 10, 3
    rng = np.random.default_rng(1)
    X = rng.standard_normal((n, f0))

    model = float64_copy(build_model(model_name, (f0, f1, classes),
                                     seed=9))
    sampler = FullBatchSampler(small_graph, np.arange(n), 2, f0)
    mb = sampler.sample()
    logits = model.forward(mb, X, small_graph.out_degrees)

    A = _dense_adj(small_graph)
    deg = small_graph.out_degrees.astype(np.float64)
    W0, b0 = model.layers[0].linear.W, model.layers[0].linear.b
    W1, b1 = model.layers[1].linear.W, model.layers[1].linear.b
    if model_name == "gcn":
        H1 = _dense_gcn_layer(A, deg, X, W0, b0, act=True)
        ref = _dense_gcn_layer(A, deg, H1, W1, b1, act=False)
    else:
        H1 = _dense_sage_layer(A, X, W0, b0, act=True)
        ref = _dense_sage_layer(A, H1, W1, b1, act=False)

    assert np.allclose(logits, ref, rtol=1e-9, atol=1e-9)


def test_neighbor_sampler_with_huge_fanout_matches_full(small_graph):
    """Fanout >= max degree ⇒ sampling degenerates to the exact 2-hop
    computation for SAGE mean aggregation."""
    n = small_graph.num_vertices
    f0, f1, classes = 5, 8, 3
    rng = np.random.default_rng(2)
    X = rng.standard_normal((n, f0))
    model = float64_copy(build_model("sage", (f0, f1, classes), seed=4))

    big = int(small_graph.out_degrees.max()) + 1
    sampler = NeighborSampler(small_graph, np.arange(n), (big, big),
                              f0, seed=0)
    targets = np.arange(10)
    mb = sampler.sample(targets)
    logits = model.forward(mb, X[mb.input_nodes],
                           small_graph.out_degrees)

    A = _dense_adj(small_graph)
    W0, b0 = model.layers[0].linear.W, model.layers[0].linear.b
    W1, b1 = model.layers[1].linear.W, model.layers[1].linear.b
    H1 = _dense_sage_layer(A, X, W0, b0, act=True)
    ref = _dense_sage_layer(A, H1, W1, b1, act=False)[targets]

    assert np.allclose(logits, ref, rtol=1e-9, atol=1e-9)
