"""Unit tests for the degree-aware remote-feature cache.

The sharded plane's books rest on the
:class:`~repro.runtime.remote_cache.RemoteFeatureCache` counters the
report's byte accounting is built from: hits + misses must equal
lookups, bytes must be dtype-exact, and the static degree-ordered
admission must realize the analytic hit-ratio model the PaGraph
baseline charges PCIe traffic with. (The halo sets it admits from are
tested with the partitioners, in ``test_partition_properties.py``.)
"""

import numpy as np
import pytest

from repro.baselines.common import degree_ordered_hit_ratio
from repro.errors import ConfigError
from repro.runtime.remote_cache import RemoteFeatureCache

#: One float32 row of six features.
ROW_BYTES = 6 * 4


class TestRemoteFeatureCache:
    def test_counter_conservation(self):
        rng = np.random.default_rng(4)
        degrees = rng.integers(0, 20, size=50)
        cache = RemoteFeatureCache(capacity_rows=10, row_bytes=ROW_BYTES)
        cache.admit(np.arange(50), degrees)
        assert cache.row_bytes == ROW_BYTES
        total = 0
        for _ in range(5):
            ids = rng.integers(0, 50, size=rng.integers(1, 30))
            hit_mask = cache.lookup(ids)
            assert hit_mask.shape == ids.shape
            total += ids.size
        assert cache.hits + cache.misses == cache.lookups == total
        assert cache.served_bytes == cache.hits * ROW_BYTES
        assert cache.missed_bytes == cache.misses * ROW_BYTES
        stats = cache.stats()
        assert stats["remote_cache_hits"] == cache.hits
        assert stats["remote_cache_misses"] == cache.misses
        assert stats["remote_cache_served_bytes"] == cache.served_bytes
        assert stats["remote_cache_rows"] == 10

    def test_hit_mask_marks_the_admitted_ids(self):
        degrees = np.arange(50)          # vertex 49 hottest
        cache = RemoteFeatureCache(capacity_rows=8, row_bytes=ROW_BYTES)
        admitted = cache.admit(np.arange(50), degrees)
        np.testing.assert_array_equal(admitted, np.arange(42, 50))
        np.testing.assert_array_equal(cache.cached_ids, admitted)
        hit_mask = cache.lookup(np.array([49, 3, 45, 45, 10]))
        np.testing.assert_array_equal(hit_mask,
                                      [True, False, True, True, False])
        assert (cache.hits, cache.misses) == (3, 2)

    def test_admit_is_one_shot(self):
        cache = RemoteFeatureCache(4, ROW_BYTES)
        cache.admit(np.arange(10), np.arange(50))
        with pytest.raises(ConfigError):
            cache.admit(np.arange(10), np.arange(50))
        with pytest.raises(ConfigError):
            RemoteFeatureCache(-1, ROW_BYTES)

    def test_lookup_before_admit_is_refused(self):
        with pytest.raises(ConfigError, match="before admit"):
            RemoteFeatureCache(4, ROW_BYTES).lookup(np.array([1]))

    def test_zero_capacity_always_misses(self):
        cache = RemoteFeatureCache(0, ROW_BYTES)
        cache.admit(np.arange(50), np.arange(50))
        assert cache.size_rows == 0
        assert not cache.lookup(np.array([1, 2, 3])).any()
        assert cache.hit_rate == 0.0
        assert cache.misses == 3
        assert cache.missed_bytes == 3 * ROW_BYTES

    def test_degree_ordered_admission_matches_analytic_model(
            self, tiny_ds):
        """Degree-proportional traffic against the cache realizes
        exactly the closed-form hit ratio the PaGraph baseline charges
        with (``degree_ordered_hit_ratio``): the admitted top-k degree
        mass over the total."""
        degrees = tiny_ds.graph.out_degrees
        n = degrees.size
        k = n // 5
        cache = RemoteFeatureCache(capacity_rows=k, row_bytes=ROW_BYTES)
        cache.admit(np.arange(n), degrees)
        # One lookup per out-edge endpoint: traffic exactly
        # proportional to degree, the model's sampling assumption.
        traffic = np.repeat(np.arange(n), degrees)
        cache.lookup(traffic)
        want = degree_ordered_hit_ratio(tiny_ds, k / n)
        assert cache.hit_rate == pytest.approx(want, rel=1e-12)
