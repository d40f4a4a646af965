"""Unit tests for repro.graph.csr."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.csr import CSRGraph


@st.composite
def edge_lists(draw, max_vertices=12, max_edges=40):
    """A vertex count and a list of ``(src, dst)`` pairs over it: self
    loops, repeated pairs, isolated vertices and zero edges all occur."""
    n = draw(st.integers(1, max_vertices))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.lists(pair, max_size=max_edges))


def _build(n, pairs, dedup=False):
    src = np.array([s for s, _ in pairs], dtype=np.int64)
    dst = np.array([d for _, d in pairs], dtype=np.int64)
    return CSRGraph.from_edges(src, dst, n, dedup=dedup)


def _pairs(g):
    src, dst = g.edges()
    return list(zip(src.tolist(), dst.tolist()))


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 2], 3)
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [2]
        assert list(g.neighbors(2)) == []

    def test_from_edges_unsorted_input(self):
        g = CSRGraph.from_edges([2, 0, 1, 0], [0, 2, 0, 1], 3)
        assert g.num_edges == 4
        assert sorted(g.neighbors(0)) == [1, 2]

    def test_from_edges_dedup(self):
        g = CSRGraph.from_edges([0, 0, 0], [1, 1, 2], 3, dedup=True)
        assert g.num_edges == 2

    def test_from_edges_keeps_duplicates_by_default(self):
        g = CSRGraph.from_edges([0, 0], [1, 1], 2)
        assert g.num_edges == 2

    def test_empty_graph(self):
        g = CSRGraph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.neighbors(4).size == 0

    def test_invalid_endpoint_raises(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges([0], [5], 3)
        with pytest.raises(GraphError):
            CSRGraph.from_edges([-1], [0], 3)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges([0, 1], [1], 3)

    def test_bad_indptr_raises(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([1, 2]), np.array([0]))   # indptr[0] != 0
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 0, 0]))

    def test_indptr_end_mismatch_raises(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([0, 0]))

    def test_num_vertices_inconsistency_raises(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 0]), np.array([], dtype=np.int64),
                     num_vertices=7)

    def test_float_indices_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(np.array([0.5]), np.array([1.0]), 3)


class TestAccessors:
    def test_out_degrees(self):
        g = CSRGraph.from_edges([0, 0, 2], [1, 2, 0], 3)
        assert list(g.out_degrees) == [2, 0, 1]
        assert g.out_degree(0) == 2

    def test_neighbors_is_view(self):
        g = CSRGraph.from_edges([0, 0], [1, 2], 3)
        view = g.neighbors(0)
        assert view.base is g.indices

    def test_neighbors_out_of_range(self):
        g = CSRGraph.empty(2)
        with pytest.raises(GraphError):
            g.neighbors(2)

    def test_edges_roundtrip(self):
        src = np.array([0, 1, 1, 2])
        dst = np.array([1, 0, 2, 1])
        g = CSRGraph.from_edges(src, dst, 3)
        s2, d2 = g.edges()
        g2 = CSRGraph.from_edges(s2, d2, 3)
        assert g == g2

    def test_avg_degree(self):
        g = CSRGraph.from_edges([0, 1], [1, 0], 2)
        assert g.avg_degree == 1.0

    def test_nbytes_positive(self):
        g = CSRGraph.from_edges([0], [1], 2)
        assert g.nbytes > 0

    def test_not_hashable(self):
        g = CSRGraph.empty(2)
        with pytest.raises(TypeError):
            hash(g)


class TestDerived:
    def test_transpose_reverses_edges(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], 3)
        t = g.transpose()
        assert list(t.neighbors(1)) == [0]
        assert list(t.neighbors(2)) == [1]
        assert t.num_edges == g.num_edges

    def test_transpose_cached(self):
        g = CSRGraph.from_edges([0], [1], 2)
        assert g.transpose() is g.transpose()

    def test_symmetrize(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], 3).symmetrize()
        assert sorted(g.neighbors(1)) == [0, 2]
        assert g.num_edges == 4

    def test_symmetrize_idempotent(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 0], 4).symmetrize()
        g2 = g.symmetrize()
        assert g == g2


class TestCoalesceProperties:
    """``from_edges(dedup=True)`` and ``symmetrize`` coalesce by one sort
    of packed ``src * n + dst`` keys; the CSR must list exactly the set
    of pairs, sorted by source then destination."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edge_lists())
    def test_from_edges_dedup_is_the_sorted_pair_set(self, case):
        n, pairs = case
        g = _build(n, pairs, dedup=True)
        assert g.num_vertices == n
        assert g.indptr.dtype == g.indices.dtype == np.int64
        assert _pairs(g) == sorted(set(pairs))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edge_lists())
    def test_symmetrize_is_the_sorted_closed_pair_set(self, case):
        n, pairs = case
        g = _build(n, pairs).symmetrize()
        assert g.num_vertices == n
        assert _pairs(g) == sorted(set(pairs) | {(d, s) for s, d in pairs})

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edge_lists())
    def test_from_edges_keeps_duplicates_in_input_order(self, case):
        n, pairs = case
        assert _pairs(_build(n, pairs)) == sorted(pairs, key=lambda p: p[0])
