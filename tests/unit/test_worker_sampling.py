"""Worker-side sampling units: per-worker RNG streams, shm-backed
sampler rebuild, and the plan-sharding partition property.

The worker-sampling backend's correctness rests on four legs the
integration matrix cannot isolate:

* seed derivation — worker ``k``'s stream is a pure function of
  ``(base_seed, k)``: deterministic across runs, independent of how
  many workers exist, and disjoint from the parent session's streams;
* sampler rebuild — a worker's sampler over the shared store draws
  identically to a fresh rebuild (restartability) and samples against
  the *shared* topology zero-copy;
* per-trainer streams — trainer ``t``'s sampler in the session and
  worker ``t``'s rebuild are one stream, whose position
  ``stream_state`` hands on, and the sampling profile advances none;
* plan sharding — the per-trainer target shards of an epoch partition
  the epoch permutation exactly (hypothesis property).
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig, TrainingConfig
from repro.errors import SamplingError
from repro.runtime.core import BatchPlan, TrainingSession
from repro.runtime.shm import SharedFeatureStore, SharedSamplerSpec
from repro.sampling import (
    build_worker_sampler,
    trainer_sampler,
    worker_stream_seed,
)

common_settings = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------

class TestWorkerStreamSeed:
    def test_deterministic(self):
        assert worker_stream_seed(11, 3) == worker_stream_seed(11, 3)

    def test_distinct_across_workers_and_bases(self):
        seeds = {worker_stream_seed(base, idx)
                 for base in (0, 1, 11, 997) for idx in range(8)}
        assert len(seeds) == 4 * 8

    def test_independent_of_worker_count(self):
        """Worker k's seed is a function of (base, k) only — adding or
        removing other workers cannot move it (the stream-independence
        contract the backend's determinism rests on)."""
        solo = [worker_stream_seed(11, k) for k in range(2)]
        crowd = [worker_stream_seed(11, k) for k in range(16)]
        assert crowd[:2] == solo

    def test_disjoint_from_session_streams(self):
        """The parent session seeds its sampler / profile / plan RNGs
        with base, base+1, base+2; derived worker seeds must not
        collide with any of them."""
        for base in (0, 7, 11, 123456):
            session_seeds = {base, base + 1, base + 2}
            for k in range(8):
                assert worker_stream_seed(base, k) not in session_seeds

    def test_negative_index_rejected(self):
        with pytest.raises(SamplingError):
            worker_stream_seed(11, -1)


# ---------------------------------------------------------------------------
# Shm-backed sampler rebuild
# ---------------------------------------------------------------------------

@pytest.fixture()
def shared_store(tiny_ds):
    cfg = TrainingConfig(model="sage", minibatch_size=32,
                         fanouts=(4, 3), hidden_dim=16,
                         learning_rate=0.05, seed=11)
    spec = SharedSamplerSpec(train_cfg=cfg,
                             feature_dim=tiny_ds.spec.feature_dim)
    with SharedFeatureStore.create(tiny_ds, sampler_spec=spec) as store:
        yield store


def _draws(sampler, targets, n=3):
    """Materialize n successive batches as comparable tuples."""
    out = []
    for _ in range(n):
        mb = sampler.sample(targets)
        out.append((tuple(ids.tolist() for ids in mb.node_ids),
                    tuple((b.src_local.tolist(), b.dst_local.tolist())
                          for b in mb.blocks)))
    return out


class TestBuildWorkerSampler:
    def test_rebuild_is_deterministic(self, shared_store, tiny_ds):
        targets = tiny_ds.train_ids[:8]
        a = build_worker_sampler(shared_store, 0)
        b = build_worker_sampler(shared_store, 0)
        assert _draws(a, targets) == _draws(b, targets)

    def test_workers_draw_from_distinct_streams(self, shared_store,
                                                tiny_ds):
        targets = tiny_ds.train_ids[:8]
        d0 = _draws(build_worker_sampler(shared_store, 0), targets)
        d1 = _draws(build_worker_sampler(shared_store, 1), targets)
        assert d0 != d1

    def test_worker_stream_unmoved_by_other_workers(self, shared_store,
                                                    tiny_ds):
        """Worker 0's draws are identical whether worker 1 exists and
        samples or not — streams are independent, not interleaved."""
        targets = tiny_ds.train_ids[:8]
        alone = _draws(build_worker_sampler(shared_store, 0), targets)
        w0 = build_worker_sampler(shared_store, 0)
        w1 = build_worker_sampler(shared_store, 1)
        _draws(w1, targets)               # worker 1 consumes its stream
        assert _draws(w0, targets) == alone

    def test_samples_shared_topology_zero_copy(self, shared_store):
        """The rebuilt sampler's graph views the segment directly —
        nothing graph-sized was copied into the worker."""
        sampler = build_worker_sampler(shared_store, 0)
        assert np.shares_memory(sampler.graph.indices,
                                shared_store.indices)
        assert np.shares_memory(sampler.graph.indptr,
                                shared_store.indptr)
        np.testing.assert_array_equal(sampler.train_ids,
                                      shared_store.train_ids)

    def test_store_without_spec_rejected(self, tiny_ds):
        with SharedFeatureStore.create(tiny_ds) as store:
            with pytest.raises(SamplingError):
                build_worker_sampler(store, 0)

    def test_manifest_spec_survives_pickle(self, shared_store):
        """The spec crosses the process boundary inside the manifest —
        the wire form must round-trip."""
        import pickle
        manifest = pickle.loads(pickle.dumps(shared_store.manifest))
        assert manifest.sampler == shared_store.manifest.sampler
        assert manifest.sampler.train_cfg.sampler == "neighbor"


# ---------------------------------------------------------------------------
# Per-trainer streams: one stream per trainer, on every plane
# ---------------------------------------------------------------------------

def _trainer_sampler(ds, cfg, index):
    return trainer_sampler(ds.graph, ds.train_ids, cfg,
                           ds.spec.feature_dim, index)


class TestTrainerStreams:
    def test_session_stream_is_the_worker_stream(self, shared_store,
                                                 tiny_ds):
        """Trainer ``t``'s sampler in the parent and worker ``t``'s
        rebuild over the shared store draw the same batches: they are
        one stream, whichever process runs it."""
        targets = tiny_ds.train_ids[:8]
        cfg = shared_store.manifest.sampler.train_cfg
        for t in (0, 2):
            assert _draws(_trainer_sampler(tiny_ds, cfg, t), targets) \
                == _draws(build_worker_sampler(shared_store, t), targets)

    def test_stream_state_hands_the_stream_on(self, tiny_ds, small_cfg):
        """A sampler handed another's ``stream_state`` — pickled, as it
        crosses a pipe — draws what the original draws next; a ``None``
        state leaves the stream where it is."""
        targets = tiny_ds.train_ids[:8]
        a = _trainer_sampler(tiny_ds, small_cfg, 1)
        b = _trainer_sampler(tiny_ds, small_cfg, 1)
        _draws(a, targets, n=2)
        b.stream_state = pickle.loads(pickle.dumps(a.stream_state))
        assert b.stream_state == a.stream_state
        moved = _draws(b, targets)
        assert moved == _draws(a, targets)

        fresh = _trainer_sampler(tiny_ds, small_cfg, 1)
        start = fresh.stream_state
        fresh.stream_state = None
        assert fresh.stream_state == start
        assert _draws(fresh, targets) != moved

    def test_profile_leaves_every_trainer_stream_at_its_start(
            self, tiny_ds, small_cfg, gpu_platform):
        """The sampling profile draws from a sampler of its own: after
        a platform session is built, trainer ``t``'s stream sits where
        a fresh trainer-``t`` sampler starts, and no two trainers share
        a stream."""
        session = TrainingSession(tiny_ds, small_cfg,
                                  SystemConfig(hybrid=True),
                                  gpu_platform)
        assert session.profile is not None
        states = [s.stream_state for s in session.samplers]
        assert states == [
            _trainer_sampler(tiny_ds, small_cfg, t).stream_state
            for t in range(session.num_trainers)]
        assert len({repr(s) for s in states}) == len(states)


# ---------------------------------------------------------------------------
# Plan sharding partitions the permutation (hypothesis)
# ---------------------------------------------------------------------------

@st.composite
def shard_inputs(draw, max_train=200, max_trainers=5, max_quota=40):
    n = draw(st.integers(1, max_train))
    start = draw(st.integers(0, 1000))
    train_ids = start + np.arange(n, dtype=np.int64)
    k = draw(st.integers(1, max_trainers))
    quotas = draw(st.lists(st.integers(0, max_quota), min_size=k,
                           max_size=k).filter(lambda q: sum(q) > 0))
    seed = draw(st.integers(0, 10**6))
    return train_ids, quotas, seed


class TestShardPartitionProperty:
    @common_settings
    @given(shard_inputs())
    def test_shards_partition_epoch_permutation_exactly(self, data):
        """The target shards the parent deals to workers, concatenated
        in dispatch order, ARE the epoch permutation — order included.
        Worker-side sampling changes where neighbor draws happen, never
        which targets a worker trains."""
        train_ids, quotas, seed = data
        plan = BatchPlan(train_ids, lambda: quotas,
                         np.random.default_rng(seed))
        dealt = [a for it in plan.start_epoch()
                 for a in it.assignments if a is not None]
        expected_perm = np.random.default_rng(seed).permutation(
            train_ids)
        np.testing.assert_array_equal(np.concatenate(dealt),
                                      expected_perm)

    @common_settings
    @given(shard_inputs())
    def test_per_worker_shards_are_disjoint(self, data):
        """No target is dealt to two workers within an epoch — the
        no-double-training half of the partition property, per worker
        rather than per iteration."""
        train_ids, quotas, seed = data
        plan = BatchPlan(train_ids, lambda: quotas,
                         np.random.default_rng(seed))
        per_worker: dict[int, list[np.ndarray]] = {}
        for it in plan.start_epoch():
            for idx, a in enumerate(it.assignments):
                if a is not None:
                    per_worker.setdefault(idx, []).append(a)
        unions = [np.concatenate(chunks)
                  for chunks in per_worker.values()]
        flat = np.concatenate(unions)
        assert np.unique(flat).size == flat.size
        np.testing.assert_array_equal(np.sort(flat), train_ids)
