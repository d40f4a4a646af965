"""Partition-mapped sharded training plane (multi-node, simulated).

The worker-sampling presets (:mod:`.process`) parallelize the sample
stage but still treat the feature store as one flat address space: any
worker gathers any row at host-memory cost. A multi-node deployment
cannot — DistDGL (Zheng et al., "Distributed Hybrid CPU and GPU
Training for GNNs on Billion-Scale Graphs") partitions the graph
across machines, trains each partition's target vertices on the machine
that owns them, and pays network cost for every feature row that lives
on another partition. This module supplies the two pieces that
reproduce that structure on one host, with the interconnect *accounted*
rather than physical, and plugs them into the process driver's seams:

* :class:`ShardPlan` — a **work source**: it mirrors the shared
  :class:`~repro.runtime.core.BatchPlan` epoch-for-epoch (same RNG
  stream, same bookkeeping) but filters each epoch permutation by the
  partition map and apportions every iteration's target budget across
  shards proportionally to the work each has left (largest-remainder
  rounding) — iteration counts, epoch coverage and per-iteration
  budget conservation stay *exact*, which is what lets the statistical
  conformance tier (plus its cross-node shard-partition assertion)
  hold this plane to the same matrix as every other backend;
* :class:`ShardedReplica` — a **replica** whose ``gather`` resolves a
  minibatch's input rows three ways — local slice,
  :class:`~repro.runtime.remote_cache.RemoteFeatureCache` hit (a
  PaGraph-style static cache of its halo's hottest vertices), or
  remote miss (read from the owning shard's slice, billed as remote
  bytes) — and ships per-minibatch local/remote gather bytes with
  every reply (SNIPPETS' DistDGL accounting).

The :class:`~repro.runtime.shm.SharedFeatureStore` is **shard-sliced**
(features and labels in shard-major order; the
:class:`~repro.graph.shard_map.ShardMap` translation arrays travel in
the segment), so worker ``k``'s local gathers stay inside its own
slice. Pool lifetime, gradient sync, DRM adjudication, dealing,
collection and the worker snapshot are the driver's, unchanged. Per-run local/remote byte
totals and the cache hit rate flow into ``report.kernel_stats``
(``shard_local_bytes`` / ``shard_remote_bytes`` / ``remote_cache_*``
keys ride the worker snapshot); per-minibatch records land in
``RunReport.shard_io``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

import numpy as np

from ... import kernels
from ...errors import ConfigError
from ...graph.partition import bfs_partition, hash_partition
from ...graph.shard_map import ShardMap
from ..core import BatchPlan, PlannedIteration
from .process import ProcessBackend, TargetDeal, WorkerReplica, WorkerSpec

#: The partitioners a sharded backend can be constructed with.
PARTITIONERS = {
    "hash": hash_partition,
    "bfs": bfs_partition,
}


# ---------------------------------------------------------------------------
# The work source (parent side)
# ---------------------------------------------------------------------------

class ShardPlan(BatchPlan):
    """Partition-mapped dealing over the session's own epoch stream.

    The shared :class:`~repro.runtime.core.BatchPlan` slices each epoch
    permutation by a quota cursor, so a trainer's batch is an arbitrary
    mix of vertices. A sharded plane must instead deal every target to
    the shard that *owns* it, while preserving the plan's exact
    arithmetic — the statistical tier asserts iteration count, epoch
    coverage and per-iteration budget conservation with no tolerance.
    This dealer threads that needle:

    * each epoch draws **one** permutation from the session plan's own
      RNG and increments its ``epochs_started`` — the sharded run
      consumes the plan's stream exactly like every other backend, so
      the kit's epoch bookkeeping holds unchanged;
    * the permutation is filtered per shard by the partition map
      (keeping permutation order within each shard: batch composition
      stays a fresh draw every epoch);
    * every iteration reads the live per-trainer quotas once (so DRM
      moves keep applying next-iteration, like everywhere else), takes
      their total ``T``, and apportions ``min(T, remaining)`` targets
      across shards **proportionally to the work each shard has
      left**, largest-remainder rounding, ties to the lower shard
      index. Proportional apportionment is what makes unbalanced
      partitions exhaust together: every iteration trains exactly
      ``min(T, remaining)`` targets, so a full epoch takes exactly
      ``ceil(train_size / T)`` iterations — the reference count.

    Empty shards (legal for ``num_parts > num_vertices`` partitions)
    simply receive ``None`` assignments and their trainers idle through
    the run.

    Only :meth:`start_epoch` differs from the session plan: the
    epoch-rolling ``iterate`` — numbering, roll-over, no-progress guard
    — is :class:`~repro.runtime.core.BatchPlan`'s own.
    """

    def __init__(self, plan: BatchPlan, parts: np.ndarray,
                 num_shards: int) -> None:
        # The same ids, quota source and RNG as the session plan; its
        # epoch counter stays the one that advances.
        super().__init__(plan.train_ids, plan.counts_fn, plan.rng)
        self.plan = plan
        self.parts = np.asarray(parts, dtype=np.int64)
        self.num_shards = int(num_shards)

    def start_epoch(self) -> Iterator[PlannedIteration]:
        """Yield one epoch of shard-owned :class:`PlannedIteration`.

        Mirrors ``BatchPlan.start_epoch``: the permutation is drawn
        eagerly off the *session plan's* RNG (one draw per epoch — the
        stream stays in lock-step with every other backend) and the
        plan's ``epochs_started`` advances, so full-epoch bookkeeping
        assertions see an identical plan state.
        """
        epoch = self.plan.epochs_started
        self.plan.epochs_started += 1
        perm = self.rng.permutation(self.train_ids)
        owned = [perm[self.parts[perm] == k]
                 for k in range(self.num_shards)]
        return self._deal_epoch(epoch, owned)

    def _deal_epoch(self, epoch: int, owned: list[np.ndarray]
                    ) -> Iterator[PlannedIteration]:
        cursors = np.zeros(self.num_shards, dtype=np.int64)
        sizes = np.array([o.size for o in owned], dtype=np.int64)
        index = 0
        while True:
            remaining = sizes - cursors
            total_left = int(remaining.sum())
            if total_left == 0:
                return
            budget = sum(max(0, int(c)) for c in self.counts_fn())
            take = min(budget, total_left)
            if take <= 0:
                return    # zero total quota: nobody can make progress
            quotas = _apportion(take, remaining)
            assignments: list[np.ndarray | None] = []
            for k in range(self.num_shards):
                q = int(quotas[k])
                if q <= 0:
                    assignments.append(None)
                    continue
                assignments.append(
                    owned[k][cursors[k]:cursors[k] + q])
                cursors[k] += q
            yield PlannedIteration(epoch=epoch, index=index,
                                   assignments=tuple(assignments))
            index += 1


def _apportion(take: int, remaining: np.ndarray) -> np.ndarray:
    """Split ``take`` targets across shards ∝ work left.

    Largest-remainder (Hamilton) apportionment over integer arithmetic:
    ``quota_k = floor(take * remaining_k / R)`` plus one for the
    largest fractional remainders until the total is ``take``. Because
    ``take <= R = sum(remaining)``, every quota satisfies
    ``quota_k <= remaining_k``; ties break to the lower shard index, so
    dealing is deterministic.
    """
    remaining = remaining.astype(np.int64)
    total = int(remaining.sum())
    if take >= total:
        return remaining.copy()
    base = (take * remaining) // total
    rem = take * remaining - base * total
    leftover = take - int(base.sum())
    if leftover > 0:
        # argsort is stable, so equal remainders keep index order.
        top = np.argsort(-rem, kind="stable")[:leftover]
        base[top] += 1
    return base


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class ShardedReplica(WorkerReplica):
    """One shard's trainer replica: the shard-sliced store mapping plus
    the local/cache/remote gather resolver."""

    def __init__(self, store, spec: WorkerSpec) -> None:
        super().__init__(store, spec)
        from ..remote_cache import RemoteFeatureCache

        self.shard = spec.index
        smap = store.shard_map()
        # Views into the segment (released before close, like
        # features/labels); degrees is already a private copy.
        self.parts = smap.parts
        self.shard_row = smap.shard_row
        shard_cfg = store.manifest.shard
        self.cache = None
        if shard_cfg.remote_cache_rows > 0:
            halo = smap.halo(store.csr_graph(), self.shard)
            cache = RemoteFeatureCache(shard_cfg.remote_cache_rows)
            cache.admit(halo, self.degrees, self.features,
                        rows_of=self.shard_row)
            self.cache = cache
        self._row_bytes = int(
            self.features.dtype.itemsize
            * int(np.prod(self.features.shape[1:], dtype=np.int64)))
        # One io record per gathered batch, consumed by ``train`` in the
        # same (FIFO) order — a queue, not a field, because under a
        # look-ahead window a dealt-ahead batch is gathered before the
        # previous one trains.
        self._io: deque[dict] = deque()

    def gather(self, mb, *, pool=None) -> np.ndarray:
        """Resolve the batch's rows local/cache/remote, into a fresh
        array (the resolver assembles its own rows, so ``pool`` is
        ignored).

        The assembled source rows are bit-identical to a flat gather
        (cache rows are copies of the same store rows), so the math
        stays inside the statistical tier's tolerances exactly like the
        other worker-sampling planes; only the *accounting* knows which
        interconnect each row crossed.
        """
        ids = np.asarray(mb.input_nodes, dtype=np.int64)
        rows = self.shard_row[ids]
        local_mask = self.parts[ids] == self.shard
        local_idx = np.flatnonzero(local_mask)
        remote_idx = np.flatnonzero(~local_mask)

        src = np.empty((ids.size,) + self.features.shape[1:],
                       dtype=self.features.dtype)
        src[local_idx] = self.features[rows[local_idx]]
        cache_hits = 0
        if remote_idx.size:
            if self.cache is not None:
                hit_mask, hit_rows = self.cache.lookup(ids[remote_idx])
                src[remote_idx[hit_mask]] = hit_rows
                miss_idx = remote_idx[~hit_mask]
                cache_hits = int(hit_mask.sum())
            else:
                miss_idx = remote_idx
            # The remote fetch: rows read out of *other shards'*
            # slices — on a real deployment this is the network RPC;
            # here it is the same segment, but billed as remote.
            src[miss_idx] = self.features[rows[miss_idx]]
        remote_rows = int(remote_idx.size - cache_hits)
        io = {
            "local_rows": int(local_idx.size),
            "remote_rows": remote_rows,
            "cache_hits": cache_hits,
            "local_bytes": int(local_idx.size) * self._row_bytes,
            "remote_bytes": remote_rows * self._row_bytes,
        }
        self._io.append(io)
        # Shard-io keys plus the standard gather keys — this resolver
        # replaces the registry's gather dispatch, so it must keep the
        # same books.
        kernels.record(
            shard_local_bytes=io["local_bytes"],
            shard_remote_bytes=io["remote_bytes"],
            shard_local_rows=io["local_rows"],
            shard_remote_rows=io["remote_rows"],
            remote_cache_hits=cache_hits,
            remote_cache_misses=remote_rows,
            gather_calls=1, gather_rows=ids.size,
            gather_src_bytes=src.nbytes, gather_out_bytes=src.nbytes)
        return src

    def labels_for(self, mb) -> np.ndarray:
        return self.labels[self.shard_row[np.asarray(
            mb.targets, dtype=np.int64)]]

    def train(self, mb, x0, labels, stage_s):
        reply = super().train(mb, x0, labels, stage_s)
        reply.shard_io = self._io.popleft()
        return reply

    def begin_run(self, params) -> None:
        super().begin_run(params)
        self._io.clear()

    def release_views(self) -> None:
        self.parts = self.shard_row = None
        super().release_views()


# ---------------------------------------------------------------------------
# The preset
# ---------------------------------------------------------------------------

class ShardedBackend(ProcessBackend):
    """``sharded`` — worker replicas over per-shard slices of the
    store: :class:`ShardPlan` × :class:`~.process.TargetDeal` ×
    :class:`ShardedReplica`, lock-step.

    Parameters
    ----------
    session:
        The shared runtime core; one worker process *and one graph
        shard* per trainer replica.
    timeout_s / mp_context:
        As on every process plane.
    partitioner:
        ``"hash"`` (random assignment — P3-style, worst-case locality)
        or ``"bfs"`` (locality-aware region growing, the METIS
        stand-in; the default).
    partition_seed:
        Seed of the partitioner's RNG — partition maps are
        deterministic per (graph, partitioner, seed).
    remote_cache_rows:
        Per-worker :class:`~repro.runtime.remote_cache.RemoteFeatureCache`
        capacity in feature rows; ``0`` (default) disables the cache —
        every remote row is billed at full interconnect cost.
    """

    name = "sharded"
    conformance_tier = "statistical"
    #: Lock-step dealing: a worker's transfer for iteration ``i + 1``
    #: cannot start until the parent has dealt it, which only happens
    #: after iteration ``i``'s gradients were pulled — transfers and
    #: gradient pulls never share the PCIe link in flight, so the
    #: duplex-contention derate must not be priced into this plane.
    overlaps_transfer = False
    deal = TargetDeal
    replica_cls = ShardedReplica

    def __init__(self, session, timeout_s: float = 120.0,
                 mp_context: str | None = None,
                 partitioner: str = "bfs",
                 partition_seed: int = 0,
                 remote_cache_rows: int = 0) -> None:
        super().__init__(session, timeout_s=timeout_s,
                         mp_context=mp_context)
        if partitioner not in PARTITIONERS:
            raise ConfigError(
                f"unknown partitioner {partitioner!r}; expected one of "
                f"{sorted(PARTITIONERS)}")
        if remote_cache_rows < 0:
            raise ConfigError("remote_cache_rows must be non-negative")
        from ..shm import SharedShardSpec
        n = session.num_trainers
        parts = PARTITIONERS[partitioner](
            session.dataset.graph, n, seed=int(partition_seed))
        shard_map = ShardMap.from_partition(parts, num_shards=n)
        self.work_source = ShardPlan(session.plan, parts, n)
        self.store_extras = dict(
            shard_map=shard_map,
            shard_spec=SharedShardSpec(
                num_shards=n, partitioner=partitioner,
                partition_seed=int(partition_seed),
                remote_cache_rows=int(remote_cache_rows)))
