"""Unit + property tests for the shard translation layer and the
degree-aware remote-feature cache.

The sharded plane's correctness rests on three pieces of arithmetic
that must be exact, not approximately right: the global ↔ (shard,
local-row) translation of :class:`~repro.graph.shard_map.ShardMap`
(a wrong row silently trains on the wrong features), the halo sets
(a missing halo vertex silently misses the cache forever), and the
:class:`~repro.runtime.remote_cache.RemoteFeatureCache` counters the
report's byte accounting is built from (hits + misses must equal
lookups, bytes must be dtype-exact, and the static degree-ordered
admission must realize the analytic hit-ratio model the PaGraph
baseline charges PCIe traffic with).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.common import degree_ordered_hit_ratio
from repro.errors import ConfigError, GraphError
from repro.graph.csr import CSRGraph
from repro.graph.shard_map import ShardMap
from repro.runtime.remote_cache import RemoteFeatureCache

common_settings = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def partitions(draw, max_vertices=60, max_shards=8):
    n = draw(st.integers(1, max_vertices))
    num_shards = draw(st.integers(1, max_shards))
    parts = draw(st.lists(st.integers(0, num_shards - 1),
                          min_size=n, max_size=n))
    return np.array(parts, dtype=np.int64), num_shards


class TestShardMap:
    @common_settings
    @given(partitions())
    def test_locate_to_global_round_trip(self, data):
        parts, num_shards = data
        smap = ShardMap.from_partition(parts, num_shards=num_shards)
        ids = np.arange(parts.size, dtype=np.int64)
        shard, local = smap.locate(ids)
        np.testing.assert_array_equal(shard, parts)
        assert local.min() >= 0
        np.testing.assert_array_equal(smap.to_global(shard, local), ids)

    @common_settings
    @given(partitions())
    def test_owned_slices_partition_the_vertices(self, data):
        parts, num_shards = data
        smap = ShardMap.from_partition(parts, num_shards=num_shards)
        owned = [smap.owned(k) for k in range(num_shards)]
        assert sum(o.size for o in owned) == parts.size
        np.testing.assert_array_equal(
            np.sort(np.concatenate(owned)), np.arange(parts.size))
        for k, o in enumerate(owned):
            assert (parts[o] == k).all()
            assert o.size == smap.shard_sizes()[k]

    @common_settings
    @given(partitions())
    def test_shard_major_order_is_consistent(self, data):
        parts, num_shards = data
        smap = ShardMap.from_partition(parts, num_shards=num_shards)
        # order/shard_row are mutual inverses, and indexing a
        # shard-major matrix by shard_row recovers global order.
        np.testing.assert_array_equal(
            smap.order[smap.shard_row], np.arange(parts.size))
        features = np.arange(parts.size, dtype=np.float64)[:, None]
        sliced = features[smap.order]
        np.testing.assert_array_equal(sliced[smap.shard_row], features)

    def test_trailing_empty_shards(self):
        parts = np.array([0, 0, 1], dtype=np.int64)
        smap = ShardMap.from_partition(parts, num_shards=5)
        np.testing.assert_array_equal(smap.shard_sizes(),
                                      [2, 1, 0, 0, 0])
        for k in (2, 3, 4):
            assert smap.owned(k).size == 0

    def test_halo_matches_brute_force(self):
        rng = np.random.default_rng(9)
        n = 30
        src = rng.integers(0, n, size=120)
        dst = rng.integers(0, n, size=120)
        graph = CSRGraph.from_edges(src, dst, n)
        parts = rng.integers(0, 3, size=n).astype(np.int64)
        smap = ShardMap.from_partition(parts, num_shards=3)
        for k in range(3):
            want = sorted({int(d) for s, d in zip(src, dst)
                           if parts[s] == k and parts[d] != k})
            np.testing.assert_array_equal(smap.halo(graph, k), want)

    def test_halo_of_empty_shard_is_empty(self, line_graph):
        parts = np.zeros(line_graph.num_vertices, dtype=np.int64)
        smap = ShardMap.from_partition(parts, num_shards=2)
        assert smap.halo(line_graph, 1).size == 0
        # ...and a one-shard map has no remote vertices at all.
        assert smap.halo(line_graph, 0).size == 0

    def test_rejects_bad_input(self):
        with pytest.raises(GraphError):
            ShardMap.from_partition(np.array([[0, 1]]))
        with pytest.raises(GraphError):
            ShardMap.from_partition(np.array([0, -1]))
        with pytest.raises(GraphError):
            ShardMap.from_partition(np.array([0, 3]), num_shards=2)
        smap = ShardMap.from_partition(np.array([0, 1]))
        with pytest.raises(GraphError):
            smap.owned(2)


class TestRemoteFeatureCache:
    @pytest.fixture()
    def features(self):
        rng = np.random.default_rng(3)
        return rng.standard_normal((50, 6)).astype(np.float32)

    def test_counter_conservation(self, features):
        rng = np.random.default_rng(4)
        degrees = rng.integers(0, 20, size=50)
        cache = RemoteFeatureCache(capacity_rows=10)
        cache.admit(np.arange(50), degrees, features)
        row_bytes = features.dtype.itemsize * features.shape[1]
        assert cache.row_bytes == row_bytes
        total = 0
        for _ in range(5):
            ids = rng.integers(0, 50, size=rng.integers(1, 30))
            cache.lookup(ids)
            total += ids.size
        assert cache.hits + cache.misses == cache.lookups == total
        assert cache.served_bytes == cache.hits * row_bytes
        assert cache.missed_bytes == cache.misses * row_bytes
        stats = cache.stats()
        assert stats["remote_cache_hits"] == cache.hits
        assert stats["remote_cache_misses"] == cache.misses
        assert stats["remote_cache_served_bytes"] == cache.served_bytes
        assert stats["remote_cache_rows"] == 10

    def test_hits_serve_the_right_rows(self, features):
        degrees = np.arange(50)          # vertex 49 hottest
        cache = RemoteFeatureCache(capacity_rows=8)
        admitted = cache.admit(np.arange(50), degrees, features)
        np.testing.assert_array_equal(admitted, np.arange(42, 50))
        ids = np.array([49, 3, 45, 45, 10])
        hit_mask, hit_rows = cache.lookup(ids)
        np.testing.assert_array_equal(hit_mask,
                                      [True, False, True, True, False])
        np.testing.assert_array_equal(hit_rows,
                                      features[[49, 45, 45]])

    def test_admission_translates_shard_rows(self, features):
        """``rows_of`` maps global ids into a shard-major matrix: the
        cache must serve the same bits either way."""
        degrees = np.arange(50)
        perm = np.random.default_rng(8).permutation(50)
        shard_major = features[perm]             # row perm[i] -> i?
        rows_of = np.empty(50, dtype=np.int64)
        rows_of[perm] = np.arange(50)            # global id -> row
        flat = RemoteFeatureCache(6)
        flat.admit(np.arange(50), degrees, features)
        mapped = RemoteFeatureCache(6)
        mapped.admit(np.arange(50), degrees, shard_major,
                     rows_of=rows_of)
        ids = np.array([49, 44, 48])
        _, a = flat.lookup(ids)
        _, b = mapped.lookup(ids)
        np.testing.assert_array_equal(a, b)

    def test_admit_is_one_shot(self, features):
        cache = RemoteFeatureCache(4)
        cache.admit(np.arange(10), np.arange(50), features)
        with pytest.raises(ConfigError):
            cache.admit(np.arange(10), np.arange(50), features)
        with pytest.raises(ConfigError):
            RemoteFeatureCache(-1)

    def test_lookup_before_admit_is_refused(self):
        with pytest.raises(ConfigError, match="before admit"):
            RemoteFeatureCache(4).lookup(np.array([1]))

    def test_zero_capacity_always_misses(self, features):
        cache = RemoteFeatureCache(0)
        cache.admit(np.arange(50), np.arange(50), features)
        hit_mask, hit_rows = cache.lookup(np.array([1, 2, 3]))
        assert not hit_mask.any()
        assert hit_rows.shape == (0, 6)
        assert hit_rows.dtype == features.dtype
        assert cache.hit_rate == 0.0
        assert cache.misses == 3

    def test_degree_ordered_admission_matches_analytic_model(
            self, tiny_ds):
        """Degree-proportional traffic against the cache realizes
        exactly the closed-form hit ratio the PaGraph baseline charges
        with (``degree_ordered_hit_ratio``): the admitted top-k degree
        mass over the total."""
        degrees = tiny_ds.graph.out_degrees
        n = degrees.size
        k = n // 5
        cache = RemoteFeatureCache(capacity_rows=k)
        cache.admit(np.arange(n), degrees, tiny_ds.features)
        # One lookup per out-edge endpoint: traffic exactly
        # proportional to degree, the model's sampling assumption.
        traffic = np.repeat(np.arange(n), degrees)
        cache.lookup(traffic)
        want = degree_ordered_hit_ratio(tiny_ds, k / n)
        assert cache.hit_rate == pytest.approx(want, rel=1e-12)
