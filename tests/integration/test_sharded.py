"""The sharded plane's own conformance sweep and interconnect audit.

``test_backend_equivalence.py`` already conforms ``sharded`` under its
default knobs (bfs partition, no cache) across every conformance case —
the kit reads the live registry. This module adds what the multi-node
plane specifically owes:

* the statistical matrix (including the kit's cross-node shard
  assertion) under **both** partition maps and with the remote cache
  on — partition-mapped dealing must conform however the partition
  looks;
* the dealer's apportionment arithmetic in isolation, including the
  empty-shard edge a ``num_parts > num_vertices``-style map produces;
* the interconnect accounting: per-minibatch local/remote gather bytes
  in :attr:`RunReport.shard_io` that reconcile exactly with the
  run-total counters in ``report.kernel_stats``, and the locality
  pin — on a clustered (power-law) graph, bfs partitioning plus a
  degree-aware remote cache must move strictly fewer remote bytes
  than hash partitioning with no cache (the regression pin on the
  whole reason this plane exists);
* the window: under two-stage prefetch the plane deals the session's
  ``prefetch_depth`` ahead, and the io records match a lock-step run's;
* the DistDGL baseline's halo assumption: the live remote-row share
  equals the partition's edge-cut fraction within 0.05, under both
  partitioners at two and four shards, and the remote cache only
  re-bills remote rows as hits (``TestHaloShareMatchesEdgeCut``,
  cited by :mod:`repro.baselines.distdgl`).
"""

import dataclasses

import numpy as np
import pytest

from backend_conformance import (
    CONFORMANCE_CASES,
    ConformanceCase,
    assert_backend_conforms,
    run_backend,
)
from repro.errors import ConfigError, ProtocolError
from repro.graph.partition import partition_quality
from repro.runtime import ShardedBackend, TrainingSession
from repro.runtime.backends.sharded import (
    PARTITIONERS,
    ShardPlan,
    _apportion,
)
from repro.runtime.core import BatchPlan
from repro.runtime.shm import SharedFeatureStore, SharedShardSpec

_CASE_IDS = [c.id for c in CONFORMANCE_CASES]

#: The knob sweep: worst-case-locality hash map without a cache, and
#: the locality-aware map with the degree-aware cache on.
_SWEEP = (
    {"partitioner": "hash", "remote_cache_rows": 0},
    {"partitioner": "bfs", "remote_cache_rows": 64},
)
_SWEEP_IDS = ["hash-nocache", "bfs-cache"]


class TestShardedConformance:
    @pytest.mark.parametrize("knobs", _SWEEP, ids=_SWEEP_IDS)
    @pytest.mark.parametrize("case", CONFORMANCE_CASES, ids=_CASE_IDS)
    def test_conforms_under_both_partition_maps(self, case, knobs,
                                                tiny_ds):
        assert_backend_conforms("sharded", case, tiny_ds,
                                extra_kwargs=knobs)

    def test_rejects_bad_knobs(self, tiny_ds, small_cfg):
        from repro.config import SystemConfig
        session = TrainingSession(
            tiny_ds, small_cfg, SystemConfig(hybrid=True, drm=False),
            num_trainers=2)
        with pytest.raises(ConfigError):
            ShardedBackend(session, partitioner="metis")
        with pytest.raises(ConfigError):
            ShardedBackend(session, remote_cache_rows=-1)


class TestShardPlan:
    def _plan(self, n, counts, seed=0):
        rng = np.random.default_rng(seed)
        return BatchPlan(np.arange(n, dtype=np.int64),
                         lambda: counts, rng)

    def test_matches_reference_iteration_arithmetic(self):
        """The partition-mapped dealer must take exactly the reference
        plan's per-iteration budget off an unbalanced partition, so a
        full epoch lasts exactly ``ceil(train / total)`` iterations."""
        n, counts = 100, [16, 16]
        parts = np.zeros(n, dtype=np.int64)
        parts[70:] = 1                    # 70/30 split, budget 16+16
        plan = self._plan(n, counts)
        sharded = ShardPlan(plan, parts, 2)
        seen = []
        for it, planned in sharded.iterate(-(-n // sum(counts))):
            assert planned.total_targets == min(
                sum(counts), n - len(seen))
            for k, a in enumerate(planned.assignments):
                if a is not None:
                    assert (parts[a] == k).all()
                    seen.extend(a.tolist())
        assert sorted(seen) == list(range(n))
        assert plan.epochs_started == 1

    def test_empty_shard_gets_none_assignments(self):
        parts = np.zeros(10, dtype=np.int64)   # shard 1 owns nothing
        plan = self._plan(10, [4, 4])
        sharded = ShardPlan(plan, parts, 2)
        for _, planned in sharded.iterate(2):
            assert planned.assignments[1] is None
            assert planned.assignments[0] is not None

    def test_zero_quota_epoch_raises(self):
        plan = self._plan(10, [0, 0])
        sharded = ShardPlan(plan, np.zeros(10, dtype=np.int64), 2)
        with pytest.raises(ProtocolError):
            list(sharded.iterate(1))

    def test_apportion_conserves_and_respects_remaining(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            remaining = rng.integers(0, 50, size=rng.integers(1, 6))
            total = int(remaining.sum())
            take = int(rng.integers(0, total + 5)) if total else 0
            quotas = _apportion(take, remaining)
            assert quotas.sum() == min(take, total)
            assert (quotas <= remaining).all()
            assert (quotas >= 0).all()


class TestShardIOAccounting:
    @pytest.fixture(scope="class")
    def reports(self, tiny_ds):
        """One run per sweep arm on the functional case (class-scoped:
        the pin and the reconciliation tests share them)."""
        case = CONFORMANCE_CASES[1]      # functional-hybrid, full epoch
        _, hash_rep = run_backend("sharded", case, tiny_ds,
                                  _SWEEP[0])
        _, bfs_rep = run_backend("sharded", case, tiny_ds, _SWEEP[1])
        return hash_rep, bfs_rep

    def test_report_exposes_per_minibatch_io(self, reports, tiny_ds):
        _, rep = reports
        assert rep.shard_io, "sharded report carries no io records"
        row_bytes = (tiny_ds.features.dtype.itemsize
                     * tiny_ds.features.shape[1])
        for rec in rep.shard_io:
            assert rec["local_bytes"] == rec["local_rows"] * row_bytes
            assert rec["remote_bytes"] == \
                rec["remote_rows"] * row_bytes
            assert rec["cache_hits"] >= 0
            assert 0 <= rec["iteration"] < rep.iterations
            assert 0 <= rec["worker"] < rep.num_workers

    def test_totals_reconcile_with_kernel_stats(self, reports):
        """Per-minibatch records and the workers' counter deltas are
        independently sourced; they must tell the same story."""
        for rep in reports:
            assert rep.local_gather_bytes == \
                sum(r["local_bytes"] for r in rep.shard_io)
            assert rep.remote_gather_bytes == \
                sum(r["remote_bytes"] for r in rep.shard_io)
            ks = rep.kernel_stats
            assert ks["remote_cache_misses"] + \
                ks.get("remote_cache_hits", 0) == \
                sum(r["remote_rows"] + r["cache_hits"]
                    for r in rep.shard_io)
            # The inherited load keeps the standard gather books.
            assert ks["gather_src_bytes"] > 0

    def test_bfs_with_cache_beats_hash_without(self, reports):
        """The locality pin: on a clustered generator graph the
        bfs partition plus the degree-aware cache must move strictly
        fewer remote bytes than hash partitioning with no cache."""
        hash_rep, bfs_rep = reports
        assert hash_rep.remote_cache_hit_rate == 0.0
        assert bfs_rep.remote_cache_hit_rate > 0.0
        assert bfs_rep.remote_gather_bytes < hash_rep.remote_gather_bytes


class TestShardedWindow:
    def test_deals_the_session_window_and_conserves_locality(
            self, tiny_ds):
        """Under two-stage prefetch ``sharded`` deals the session's
        window ahead, like every worker-sampling plane. Dealing ahead
        changes when a shard gathers, never what: the per-minibatch io
        records, the run's local/remote byte totals and the losses all
        equal a lock-step (``prefetch=False``) run's."""
        depth = 3
        base = CONFORMANCE_CASES[1]      # functional-hybrid, full epoch
        reports = {}
        for prefetch in (True, False):
            case = dataclasses.replace(base, sys_cfg_kwargs={
                **base.sys_cfg_kwargs, "prefetch": prefetch,
                "prefetch_depth": depth})
            _, reports[prefetch] = run_backend("sharded", case, tiny_ds,
                                               _SWEEP[1])
        ahead, lockstep = reports[True], reports[False]
        assert max(n for n, _ in ahead.lookahead_history) == depth
        assert max(n for n, _ in lockstep.lookahead_history) == 1
        assert ahead.shard_io == lockstep.shard_io
        assert ahead.local_gather_bytes == lockstep.local_gather_bytes
        assert ahead.remote_gather_bytes == lockstep.remote_gather_bytes
        assert ahead.remote_cache_hit_rate == \
            lockstep.remote_cache_hit_rate
        np.testing.assert_array_equal(ahead.losses, lockstep.losses)


class TestHaloShareMatchesEdgeCut:
    """The check the plane exists for. The DistDGL row of Tables V/VI
    (:mod:`repro.baselines.distdgl`) bills ``edge_cut_fraction ×
    |V⁰|`` halo rows per batch; the live plane's remote-row share over
    a full epoch must read the same fraction, within 0.05."""

    @staticmethod
    def _run(tiny_ds, partitioner, shards, cache_rows):
        case = ConformanceCase(id=f"{partitioner}-{shards}",
                               num_trainers=shards,
                               sys_cfg_kwargs=dict(drm=False))
        _, rep = run_backend("sharded", case, tiny_ds, {
            "partitioner": partitioner,
            "remote_cache_rows": cache_rows})
        return rep

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("partitioner", ["bfs", "hash"])
    def test_remote_share_tracks_edge_cut(self, tiny_ds, partitioner,
                                          shards):
        rep = self._run(tiny_ds, partitioner, shards, 0)
        local = sum(r["local_rows"] for r in rep.shard_io)
        remote = sum(r["remote_rows"] for r in rep.shard_io)
        parts = PARTITIONERS[partitioner](tiny_ds.graph, shards, seed=0)
        np.testing.assert_array_equal(rep.shard_parts, parts)
        cut = partition_quality(tiny_ds.graph, parts).edge_cut_fraction
        assert remote / (local + remote) == pytest.approx(cut, abs=0.05)

        # The cache re-bills remote rows as hits, batch by batch, and
        # leaves the local rows alone.
        cached = self._run(tiny_ds, partitioner, shards, 64)
        assert len(cached.shard_io) == len(rep.shard_io)
        for off, on in zip(rep.shard_io, cached.shard_io):
            assert on["remote_rows"] + on["cache_hits"] == \
                off["remote_rows"]
            assert on["local_rows"] == off["local_rows"]
        assert cached.remote_cache_hit_rate > 0.0


class TestShardedStore:
    def test_partitioned_store_keeps_global_order(self, tiny_ds):
        parts = np.arange(tiny_ds.graph.num_vertices,
                          dtype=np.int64) % 3
        store = SharedFeatureStore.create(tiny_ds, parts=parts)
        try:
            np.testing.assert_array_equal(store.parts, parts)
            np.testing.assert_array_equal(store.features,
                                          tiny_ds.features)
            np.testing.assert_array_equal(store.labels, tiny_ds.labels)
            assert store.manifest.shard == SharedShardSpec()
        finally:
            store.close()
            store.unlink()

    def test_shard_spec_requires_map(self, tiny_ds):
        with pytest.raises(ProtocolError):
            SharedFeatureStore.create(
                tiny_ds, shard_spec=SharedShardSpec(remote_cache_rows=2))

    def test_plain_store_is_not_sharded(self, tiny_ds):
        store = SharedFeatureStore.create(tiny_ds)
        try:
            assert store.manifest.shard is None
            assert "parts" not in {a.key for a in store.manifest.arrays}
        finally:
            store.close()
            store.unlink()
