"""Property-based tests (hypothesis) for :mod:`repro.graph.partition`.

The sharded training plane trusts the partitioners for three
invariants the example-based tests in ``test_datasets_partition.py``
only spot-check: every vertex is assigned to exactly one in-range
shard, BFS growing respects its size budget, and the quality metrics
the distributed baselines charge communication with agree with a
brute-force recount. Plus the two edge shapes the sharded plane must
survive (regression: both used to crash or were never exercised):
``num_parts > num_vertices`` (empty shards are representable, not an
error) and ``num_parts == 1``; and :func:`~repro.graph.partition.halo`,
the remote vertices a shard's batches can touch, against a brute-force
recount (a missing halo vertex silently misses the remote cache
forever).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.partition import (
    bfs_partition,
    halo,
    hash_partition,
    partition_quality,
)

common_settings = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

PARTITIONERS = (hash_partition, bfs_partition)


@st.composite
def partition_inputs(draw, max_vertices=40, max_edges=160):
    """A small random graph plus a partition count that deliberately
    straddles the ``num_parts > num_vertices`` edge."""
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    graph = CSRGraph.from_edges(np.array(src, dtype=np.int64),
                                np.array(dst, dtype=np.int64), n)
    num_parts = draw(st.integers(1, n + 5))
    seed = draw(st.integers(0, 2**16))
    return graph, num_parts, seed


class TestAssignmentTotality:
    @pytest.mark.parametrize("partition", PARTITIONERS)
    @common_settings
    @given(partition_inputs())
    def test_every_vertex_assigned_in_range(self, partition, data):
        graph, num_parts, seed = data
        parts = partition(graph, num_parts, seed=seed)
        assert parts.shape == (graph.num_vertices,)
        assert parts.dtype == np.int64
        assert parts.min() >= 0
        assert parts.max() < num_parts

    @common_settings
    @given(partition_inputs())
    def test_bfs_respects_size_budget(self, data):
        graph, num_parts, seed = data
        parts = bfs_partition(graph, num_parts, seed=seed)
        budget = -(-graph.num_vertices // num_parts)
        sizes = np.bincount(parts, minlength=num_parts)
        assert sizes.sum() == graph.num_vertices
        assert sizes.max() <= budget

    @pytest.mark.parametrize("partition", PARTITIONERS)
    @common_settings
    @given(partition_inputs())
    def test_quality_matches_brute_force(self, partition, data):
        graph, num_parts, seed = data
        parts = partition(graph, num_parts, seed=seed)
        q = partition_quality(graph, parts)

        src, dst = graph.edges()
        pairs = list(zip(src.tolist(), dst.tolist()))
        cut = [(s, d) for s, d in pairs if parts[s] != parts[d]]
        want_cut = len(cut) / len(pairs) if pairs else 0.0
        assert q.edge_cut_fraction == pytest.approx(want_cut)

        # partition_quality derives its shard count from the
        # assignment itself (max + 1), so recount on that basis.
        realized = int(parts.max()) + 1
        sizes = [int(np.sum(parts == p)) for p in range(realized)]
        want_imbalance = max(sizes) / (sum(sizes) / realized)
        assert q.imbalance == pytest.approx(want_imbalance)

        halo_pairs = {(int(parts[d]), int(s)) for s, d in cut}
        want_repl = 1.0 + len(halo_pairs) / max(1, graph.num_vertices)
        assert q.replication_factor == pytest.approx(want_repl)


class TestEdgeShapes:
    """The two regression edges the sharded plane depends on."""

    @pytest.fixture()
    def small_graph(self):
        rng = np.random.default_rng(5)
        src = rng.integers(0, 10, size=40)
        dst = rng.integers(0, 10, size=40)
        return CSRGraph.from_edges(src, dst, 10)

    @pytest.mark.parametrize("partition", PARTITIONERS)
    def test_more_parts_than_vertices(self, small_graph, partition):
        """``num_parts > n`` yields a legal assignment with (possibly)
        empty shards — it used to raise in ``bfs_partition`` — and
        the sharded plane's two readers of a map, ``bincount`` and
        :func:`halo`, read the empty shards as zero-sized."""
        num_parts = small_graph.num_vertices + 7
        parts = partition(small_graph, num_parts, seed=1)
        assert parts.shape == (small_graph.num_vertices,)
        assert parts.min() >= 0 and parts.max() < num_parts
        sizes = np.bincount(parts, minlength=num_parts)
        assert sizes.size == num_parts
        assert sizes.sum() == small_graph.num_vertices
        assert (sizes == 0).any()          # empty shards representable
        for k in np.flatnonzero(sizes == 0):
            assert halo(small_graph, parts, int(k)).size == 0

    def test_bfs_more_parts_than_vertices_stays_balanced(
            self, small_graph):
        parts = bfs_partition(small_graph,
                              small_graph.num_vertices + 7, seed=1)
        # budget = ceil(n / num_parts) = 1: perfect spread, one vertex
        # per non-empty shard.
        sizes = np.bincount(parts,
                            minlength=small_graph.num_vertices + 7)
        assert sizes.max() == 1

    @pytest.mark.parametrize("partition", PARTITIONERS)
    def test_single_partition(self, small_graph, partition):
        parts = partition(small_graph, 1, seed=3)
        np.testing.assert_array_equal(
            parts, np.zeros(small_graph.num_vertices, dtype=np.int64))
        q = partition_quality(small_graph, parts)
        assert q.edge_cut_fraction == 0.0
        assert q.imbalance == 1.0

    @pytest.mark.parametrize("partition", PARTITIONERS)
    def test_invalid_num_parts_rejected(self, small_graph, partition):
        with pytest.raises(GraphError):
            partition(small_graph, 0)


class TestHalo:
    def test_halo_matches_brute_force(self):
        rng = np.random.default_rng(9)
        n = 30
        src = rng.integers(0, n, size=120)
        dst = rng.integers(0, n, size=120)
        graph = CSRGraph.from_edges(src, dst, n)
        parts = rng.integers(0, 3, size=n).astype(np.int64)
        for k in range(3):
            want = sorted({int(d) for s, d in zip(src, dst)
                           if parts[s] == k and parts[d] != k})
            np.testing.assert_array_equal(halo(graph, parts, k), want)

    def test_halo_of_empty_shard_is_empty(self, line_graph):
        parts = np.zeros(line_graph.num_vertices, dtype=np.int64)
        assert halo(line_graph, parts, 1).size == 0
        # ...and a one-shard map has no remote vertices at all.
        assert halo(line_graph, parts, 0).size == 0
