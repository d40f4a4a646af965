"""Unit tests for repro.graph.coo and repro.graph.generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.coo import sort_edges_by_src, source_run_lengths
from repro.graph.generators import power_law_graph
from repro.graph.validate import check_graph


class TestCOO:
    def test_sort_edges_by_src(self):
        src = np.array([2, 0, 1, 0])
        dst = np.array([9, 8, 7, 6])
        s, d = sort_edges_by_src(src, dst)
        assert list(s) == [0, 0, 1, 2]
        assert list(d) == [8, 6, 7, 9]   # stable within equal src

    def test_sort_shape_mismatch(self):
        with pytest.raises(GraphError):
            sort_edges_by_src(np.array([0]), np.array([0, 1]))

    def test_source_run_lengths(self):
        runs = source_run_lengths(np.array([0, 0, 0, 1, 3, 3]))
        assert list(runs) == [3, 1, 2]

    def test_source_run_lengths_empty(self):
        assert source_run_lengths(np.array([])).size == 0

    def test_run_lengths_sum_to_edges(self):
        src = np.sort(np.random.default_rng(0).integers(0, 50, 300))
        assert source_run_lengths(src).sum() == 300


class TestGenerators:
    def test_power_law_edge_count(self):
        g = power_law_graph(2000, 8.0, seed=2)
        check_graph(g)
        assert g.num_edges == 16000

    def test_power_law_heavy_tail(self):
        g = power_law_graph(3000, 10.0, seed=4)
        t = g.transpose()
        degs = np.sort(t.out_degrees)[::-1]
        # Top 1% of vertices should hold well above 1% of edges.
        top = degs[:30].sum()
        assert top > 0.05 * g.num_edges

    def test_power_law_max_degree_cap(self):
        g = power_law_graph(2000, 10.0, max_degree_fraction=0.01,
                            seed=5)
        t = g.transpose()
        # Expected cap is 1% of vertices = 20; allow sampling slack.
        assert t.out_degrees.max() < 0.03 * g.num_vertices

    def test_power_law_source_skew(self):
        g = power_law_graph(3000, 10.0, seed=6)
        degs = g.out_degrees
        assert np.median(degs) < degs.mean()

    def test_power_law_invalid_args(self):
        with pytest.raises(GraphError):
            power_law_graph(0, 5.0)
        with pytest.raises(GraphError):
            power_law_graph(10, -1.0)
        with pytest.raises(GraphError):
            power_law_graph(10, 5.0, exponent=0.9)
        with pytest.raises(GraphError):
            power_law_graph(10, 5.0, max_degree_fraction=0.0)
