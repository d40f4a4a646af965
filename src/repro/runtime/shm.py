"""Shared-memory feature store for multi-process execution backends.

The process-pool backend (DistDGL-style: Zheng et al., "Distributed
Hybrid CPU and GPU Training for Graph Neural Networks on Billion-Scale
Graphs") runs trainer replicas in worker *processes*. Re-pickling the
feature matrix per mini-batch would immediately re-create the PCIe-style
traffic bottleneck the paper's feature loader avoids, so the dataset's
big read-only arrays — node features, labels, and the CSR topology —
are placed once in a single :mod:`multiprocessing.shared_memory` block
and every worker maps them zero-copy. The same segment carries the one
*writable* array, the **gradient slab** (``grads``): row ``k`` is
worker ``k``'s flat gradient, the last row the parent's averaged
update, so per-iteration gradient traffic never touches a pipe either.

Layout: one segment, all arrays at 64-byte-aligned offsets (one segment
means one thing to unlink, and cache-line alignment keeps NumPy gathers
on the natural fast path). A picklable :class:`SharedStoreManifest`
carries ``(segment name, per-array dtype/shape/offset)`` to the workers,
which re-materialize NumPy views with :meth:`SharedFeatureStore.attach`.

Lifetime / cleanup contract
---------------------------
* The **creator** (the backend's parent process) owns the segment: it is
  the only party that may :meth:`unlink`. The store lives as long as the
  backend's worker pool — created on the backend's first ``run()``,
  reused by every later one — and ``close()`` + ``unlink()`` run in the
  pool's single teardown (``backend.close()``, the pool's finalizer, or
  a failed run); the store's own ``weakref.finalize`` guard still
  unlinks on garbage collection as a last resort, so no segment
  outlives its backend even on error paths.
* **Workers** attach by name and must only :meth:`close`. Workers
  spawned (or forked) by the creator share its ``resource_tracker``
  process, whose name cache is a set — the attach-side re-registration
  dedupes, and the owner's ``unlink`` clears the single entry. (The
  bpo-39959 double-unlink problem only affects *unrelated* processes
  attaching by name, which this store does not support.)
* Array views pin the mapping: :meth:`close` drops the store's views
  first; callers must not hold onto ``store.features`` etc. past close.
"""

from __future__ import annotations

import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..errors import ProtocolError

#: Alignment for every array inside the segment (one x86 cache line).
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class SharedArraySpec:
    """Placement of one array inside the shared segment (picklable)."""

    key: str
    dtype: str
    shape: tuple[int, ...]
    offset: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape,
                                                               dtype=np.int64)))


@dataclass(frozen=True)
class SharedSamplerSpec:
    """Everything a worker needs to rebuild the session's sampler family
    against the shared CSR topology (picklable).

    ``train_cfg`` carries the whole training config (sampler family
    name, fanouts, layer count, base seed) so third-party samplers
    registered via :func:`repro.sampling.register_sampler` rebuild from
    whatever config fields their builder reads.
    :func:`repro.sampling.build_worker_sampler` consumes this spec plus
    a worker index and derives that worker's independent RNG stream.
    """

    train_cfg: "object"            # repro.config.TrainingConfig
    feature_dim: int


@dataclass(frozen=True)
class SharedShardSpec:
    """Partition metadata of a shard-sliced store (picklable).

    When the creating backend trains over a vertex partition (the
    sharded plane), ``features`` and ``labels`` are stored in
    **shard-major row order**: shard ``k``'s rows form one contiguous
    slice, so a worker's local gathers stay inside its own slice and
    any other row is a remote fetch it must account for. The
    translation arrays travel in the segment itself (``parts``,
    ``shard_row``, ``shard_order``, ``shard_offsets`` — see
    :class:`~repro.graph.shard_map.ShardMap`); this spec carries what
    a worker cannot derive from them: the shard count (trailing empty
    shards are representable), how the map was produced, and the
    per-worker remote-cache capacity.
    """

    num_shards: int
    partitioner: str | None = None
    partition_seed: int | None = None
    remote_cache_rows: int = 0


@dataclass(frozen=True)
class SharedStoreManifest:
    """Everything a worker needs to map the store (picklable).

    ``sampler`` is optional sampler state: when the creating backend
    runs worker-side neighbor sampling, the manifest carries the
    :class:`SharedSamplerSpec` the workers rebuild their samplers from
    (the topology itself travels in the segment as ``indptr`` /
    ``indices`` / ``train_ids``). ``shard`` is optional partition
    state: a shard-sliced store (the sharded plane) carries a
    :class:`SharedShardSpec` and stores features/labels in shard-major
    order alongside the translation arrays.
    """

    segment: str
    arrays: tuple[SharedArraySpec, ...]
    sampler: SharedSamplerSpec | None = None
    shard: SharedShardSpec | None = None

    @property
    def total_bytes(self) -> int:
        last = self.arrays[-1]
        return last.offset + last.nbytes


class SharedFeatureStore:
    """Dataset-sized read-only arrays in one shared-memory segment.

    Construct with :meth:`create` (parent / owner) or :meth:`attach`
    (worker). Usable as a context manager: ``__exit__`` closes, and
    additionally unlinks when this store is the owner.
    """

    #: Segment-name prefix; the teardown tests scan /dev/shm for it.
    NAME_PREFIX = "repro_shm_"

    def __init__(self, shm: shared_memory.SharedMemory,
                 manifest: SharedStoreManifest, owner: bool) -> None:
        self._shm = shm
        self.manifest = manifest
        self.owner = owner
        self._views: dict[str, np.ndarray] = {
            spec.key: np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                                 buffer=shm.buf, offset=spec.offset)
            for spec in manifest.arrays
        }
        self._csr = None
        self._closed = False
        # Last-resort cleanup if an error path skips close()/unlink().
        self._finalizer = weakref.finalize(
            self, _finalize_store, shm, owner)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, dataset,
               sampler_spec: SharedSamplerSpec | None = None,
               shard_map=None,
               shard_spec: SharedShardSpec | None = None,
               grad_slab: np.ndarray | None = None
               ) -> "SharedFeatureStore":
        """Copy ``dataset``'s big arrays into a fresh shared segment.

        Shares ``features``, ``labels``, the CSR topology
        (``indptr``/``indices``) and ``train_ids`` — everything a
        worker needs to gather inputs, evaluate the models' degree
        terms, *and* (with a ``sampler_spec``) rebuild the session's
        sampler family locally, without touching the parent's address
        space.

        With a ``shard_map`` (:class:`~repro.graph.shard_map.ShardMap`)
        the store becomes **shard-sliced**: features and labels are
        written in shard-major row order (shard ``k``'s rows form the
        contiguous slice ``offsets[k]:offsets[k+1]``) and the
        translation arrays (``parts``, ``shard_row``, ``shard_order``,
        ``shard_offsets``) travel in the segment; the CSR topology and
        ``train_ids`` stay globally indexed (the sampler and the
        models' degree terms speak global ids). ``shard_spec`` is the
        accompanying :class:`SharedShardSpec` metadata (defaults to a
        bare spec naming only the shard count).

        ``grad_slab`` — the initial ``(rows, num_params)`` gradient
        slab in the model's parameter dtype — is copied in as
        :attr:`grads`: same segment, same manifest, same unlink.
        """
        features = np.ascontiguousarray(dataset.features)
        labels = np.ascontiguousarray(dataset.labels)
        arrays = {
            "features": features,
            "labels": labels,
            "indptr": np.ascontiguousarray(dataset.graph.indptr),
            "indices": np.ascontiguousarray(dataset.graph.indices),
            "train_ids": np.ascontiguousarray(dataset.train_ids),
        }
        if shard_map is not None:
            arrays["features"] = np.ascontiguousarray(
                features[shard_map.order])
            arrays["labels"] = np.ascontiguousarray(
                labels[shard_map.order])
            arrays["parts"] = np.ascontiguousarray(shard_map.parts)
            arrays["shard_row"] = np.ascontiguousarray(
                shard_map.shard_row)
            arrays["shard_order"] = np.ascontiguousarray(
                shard_map.order)
            arrays["shard_offsets"] = np.ascontiguousarray(
                shard_map.offsets)
            if shard_spec is None:
                shard_spec = SharedShardSpec(
                    num_shards=shard_map.num_shards)
        elif shard_spec is not None:
            raise ProtocolError(
                "shard_spec without a shard_map: the store cannot "
                "slice features it has no partition for")
        if grad_slab is not None:
            arrays["grads"] = grad_slab
        specs: list[SharedArraySpec] = []
        offset = 0
        for key, arr in arrays.items():
            offset = _aligned(offset)
            specs.append(SharedArraySpec(key=key, dtype=arr.dtype.str,
                                         shape=tuple(arr.shape),
                                         offset=offset))
            offset += arr.nbytes
        name = f"{cls.NAME_PREFIX}{secrets.token_hex(8)}"
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(1, offset))
        manifest = SharedStoreManifest(segment=shm.name,
                                       arrays=tuple(specs),
                                       sampler=sampler_spec,
                                       shard=shard_spec)
        store = cls(shm, manifest, owner=True)
        for spec in specs:
            store._views[spec.key][...] = arrays[spec.key]
        return store

    @classmethod
    def attach(cls, manifest: SharedStoreManifest) -> "SharedFeatureStore":
        """Map an existing store from its manifest (worker side)."""
        shm = shared_memory.SharedMemory(name=manifest.segment)
        return cls(shm, manifest, owner=False)

    # ------------------------------------------------------------------
    # Array access
    # ------------------------------------------------------------------
    def _view(self, key: str) -> np.ndarray:
        if self._closed:
            raise ProtocolError("shared feature store is closed")
        return self._views[key]

    @property
    def features(self) -> np.ndarray:
        return self._view("features")

    @property
    def labels(self) -> np.ndarray:
        return self._view("labels")

    @property
    def indptr(self) -> np.ndarray:
        return self._view("indptr")

    @property
    def indices(self) -> np.ndarray:
        return self._view("indices")

    @property
    def train_ids(self) -> np.ndarray:
        return self._view("train_ids")

    @property
    def grads(self) -> np.ndarray:
        """The gradient slab (writable by every attached process; the
        process driver's per-iteration handshake orders the accesses)."""
        return self._view("grads")

    @property
    def is_sharded(self) -> bool:
        """Whether this store was created with a shard layout."""
        return self.manifest.shard is not None

    def shard_map(self):
        """The store's :class:`~repro.graph.shard_map.ShardMap`,
        rebuilt zero-copy from the segment's translation arrays
        (worker side). The returned map's arrays view the segment —
        drop it before :meth:`close`, like any other view."""
        from ..graph.shard_map import ShardMap
        if not self.is_sharded:
            raise ProtocolError("store was created without a shard map")
        return ShardMap(parts=self._view("parts"),
                        num_shards=self.manifest.shard.num_shards,
                        order=self._view("shard_order"),
                        shard_row=self._view("shard_row"),
                        offsets=self._view("shard_offsets"))

    @property
    def degrees(self) -> np.ndarray:
        """Out-degrees derived from the shared CSR (a private copy —
        safe to hold past :meth:`close`)."""
        return np.diff(self._view("indptr"))

    def csr_graph(self):
        """The shared topology as a :class:`~repro.graph.csr.CSRGraph`.

        Zero-copy: the graph's ``indptr``/``indices`` are views into
        the segment (already int64 and contiguous, so ``CSRGraph``'s
        normalization copies nothing). Built — and validated, an
        O(E) pass — once per store and kept until :meth:`close`, so a
        reused worker rebuilding its sampler every run pays it once.
        The returned graph pins the mapping — drop it before
        :meth:`close`, like any other view.
        """
        from ..graph.csr import CSRGraph
        if self._csr is None:
            self._csr = CSRGraph(self.indptr, self.indices)
        return self._csr

    @property
    def nbytes(self) -> int:
        return self.manifest.total_bytes

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unmap the segment (drops all views). Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        self._csr = None
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment. Owner only; idempotent."""
        if not self.owner:
            raise ProtocolError(
                "only the creating process may unlink the store")
        self._finalizer.detach()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # already gone (double teardown)
            pass

    def __enter__(self) -> "SharedFeatureStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self.owner:
            self.unlink()


def _finalize_store(shm: shared_memory.SharedMemory, owner: bool) -> None:
    """GC-time guard: never leak a segment past the owning store."""
    try:  # pragma: no cover - defensive
        shm.close()
    except Exception:
        pass
    if owner:
        try:
            shm.unlink()
        except Exception:
            pass
