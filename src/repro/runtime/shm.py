"""Shared-memory feature store for multi-process execution backends.

The process-pool backend (DistDGL-style: Zheng et al., "Distributed
Hybrid CPU and GPU Training for Graph Neural Networks on Billion-Scale
Graphs") runs trainer replicas in worker *processes*. Re-pickling the
feature matrix per mini-batch would immediately re-create the PCIe-style
traffic bottleneck the paper's feature loader avoids, so the dataset's
big read-only arrays — node features, labels, and the CSR topology —
are placed once in a single :mod:`multiprocessing.shared_memory` block
and every worker maps them zero-copy, always in global vertex order (a
partitioned store adds only its ``parts`` map). Under a lossy transfer
policy the segment also carries the session's **wire table** — the
int8 codes and per-row scales (or the float16 copy) the accelerator
workers gather and decode, encoded once by the parent
(:attr:`SharedFeatureStore.wire_table`). The same segment
carries the one *writable* array, the **gradient slab** (``grads``):
row ``k`` is worker ``k``'s flat gradient, the last row the parent's
averaged update, so per-iteration gradient traffic never touches a
pipe either.

Layout: one segment, all arrays at 64-byte-aligned offsets (one segment
means one thing to unlink, and cache-line alignment keeps NumPy gathers
on the natural fast path). A picklable :class:`SharedStoreManifest`
carries ``(segment name, per-array dtype/shape/offset)`` to the workers,
which re-materialize NumPy views with :meth:`SharedFeatureStore.attach`.

Lifetime / cleanup contract
---------------------------
* **Which process maps what.** Each store maps the segment once, on a
  mapping of its own that every array it hands out keeps as its base:
  the mapping is unmapped when the last array over it dies, never under
  a live one. The parent's store is the one mapping in the parent, and
  a process plane *adopts* it (:meth:`adopt`): the session's dataset
  arrays become read-only views of the segment and the private copies
  go before any worker forks, so the dataset lives once in the parent
  (DistDGL keeps one shared copy the same way). A forked worker
  inherits that mapping untouched and reads through its own
  (:meth:`attach`).
* The **creator** (the backend's parent process) owns the segment: it is
  the only party that may :meth:`unlink`. The store lives as long as the
  backend's worker pool — created on the backend's first ``run()``,
  reused by every later one — and ``close()`` + ``unlink()`` run in the
  pool's single teardown (``backend.close()``, the pool's finalizer, or
  a failed run); the store's own ``weakref.finalize`` guard still
  unlinks on garbage collection as a last resort, so no segment
  *name* outlives its backend even on error paths.
* **Workers** attach by name and must only :meth:`close`. Workers
  spawned (or forked) by the creator share its ``resource_tracker``
  process, whose name cache is a set — the attach-side re-registration
  dedupes, and the owner's ``unlink`` clears the single entry. (The
  bpo-39959 double-unlink problem only affects *unrelated* processes
  attaching by name, which this store does not support.)
* **What close() leaves behind.** :meth:`close` drops the store's own
  views (a later ``store.features`` raises :class:`ProtocolError`) and
  cannot fail; an array still held — an adopted dataset array, a view
  pinned by a traceback — stays readable, and the segment's memory,
  nameless once unlinked, is freed with the last such array. After a
  process plane closes, its session therefore keeps reading its
  dataset from the unlinked segment, on any plane, until a reopen
  adopts the next one.
"""

from __future__ import annotations

import mmap
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..errors import ProtocolError
from ..kernels import WireRows

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
    a trainer index and builds that trainer's sampler, on its stream.
    """

    train_cfg: "object"            # repro.config.TrainingConfig
    feature_dim: int


@dataclass(frozen=True)
class SharedShardSpec:
    """Partition metadata of a partitioned store (picklable).

    When the creating backend trains over a vertex partition (the
    sharded plane), the segment carries the partition map itself
    (``parts``, one shard id per vertex) next to the globally ordered
    features and labels; this spec carries what a worker cannot read
    from it: the per-worker remote-cache capacity.
    """

    remote_cache_rows: int = 0


@dataclass(frozen=True)
class SharedStoreManifest:
    """Everything a worker needs to map the store (picklable).

    ``sampler`` is optional sampler state: when the creating backend
    runs worker-side neighbor sampling, the manifest carries the
    :class:`SharedSamplerSpec` the workers rebuild their samplers from
    (the topology itself travels in the segment as ``indptr`` /
    ``indices`` / ``train_ids``). ``shard`` is optional partition
    state: a partitioned store (the sharded plane) carries a
    :class:`SharedShardSpec` and its ``parts`` array.
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
        # The views' own mapping (``mmap`` dups the descriptor): each
        # array keeps it as its base, so it is unmapped by the last of
        # them. ``shm``'s mapping is closed at once; ``shm`` stays for
        # the name ``unlink`` needs.
        mapping = mmap.mmap(shm._fd, shm.size)
        shm.close()
        self._views: dict[str, np.ndarray] = {
            spec.key: np.ndarray(spec.shape, dtype=np.dtype(spec.dtype),
                                 buffer=mapping, offset=spec.offset)
            for spec in manifest.arrays
        }
        self._csr = None
        self._closed = False
        if owner:   # last-resort unlink if an error path skips unlink()
            self._finalizer = weakref.finalize(self, _finalize_store, shm)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, dataset,
               sampler_spec: SharedSamplerSpec | None = None,
               parts: np.ndarray | None = None,
               shard_spec: SharedShardSpec | None = None,
               grad_slab: np.ndarray | None = None,
               wire_table: WireRows | None = None
               ) -> "SharedFeatureStore":
        """Copy ``dataset``'s big arrays into a fresh shared segment.

        Shares ``features``, ``labels``, the CSR topology
        (``indptr``/``indices``) and ``train_ids`` — everything a
        worker needs to gather inputs, evaluate the models' degree
        terms, *and* (with a ``sampler_spec``) rebuild the session's
        sampler family locally, without touching the parent's address
        space.

        With ``parts`` (one partition id per vertex) the store is
        **partitioned**: the map travels in the segment as
        :attr:`parts`, and ``shard_spec`` is the accompanying
        :class:`SharedShardSpec` (defaults to one with no remote
        cache). Every array stays globally indexed: a worker tells its
        local rows from remote ones by ``parts``, not by position.

        ``grad_slab`` — the initial ``(rows, num_params)`` gradient
        slab in the model's parameter dtype — is copied in as
        :attr:`grads`: same segment, same manifest, same unlink.

        ``wire_table`` — the session's encoded features
        (:func:`repro.kernels.encode`) — is copied in as codes (plus
        the int8 scales) and read back as :attr:`wire_table`.
        """
        arrays = {
            "features": np.ascontiguousarray(dataset.features),
            "labels": np.ascontiguousarray(dataset.labels),
            "indptr": np.ascontiguousarray(dataset.graph.indptr),
            "indices": np.ascontiguousarray(dataset.graph.indices),
            "train_ids": np.ascontiguousarray(dataset.train_ids),
        }
        if parts is not None:
            arrays["parts"] = np.ascontiguousarray(parts, dtype=np.int64)
            if shard_spec is None:
                shard_spec = SharedShardSpec()
        elif shard_spec is not None:
            raise ProtocolError(
                "shard_spec without parts: the store has no partition "
                "to bill rows by")
        if grad_slab is not None:
            arrays["grads"] = grad_slab
        if wire_table is not None:
            arrays["wire_codes"] = wire_table.codes
            if wire_table.scales is not None:
                arrays["wire_scales"] = wire_table.scales
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

    def _readonly(self, key: str) -> np.ndarray:
        view = self._view(key).view()
        view.flags.writeable = False
        return view

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
    def parts(self) -> np.ndarray:
        """The partition map of a partitioned store (one shard id per
        vertex)."""
        return self._view("parts")

    @property
    def wire_table(self) -> WireRows | None:
        """The accelerator wire table the parent encoded, as read-only
        views into the segment; ``None`` when the store carries none."""
        dtype = self.features.dtype          # raises once closed
        if "wire_codes" not in self._views:
            return None
        codes = self._readonly("wire_codes")
        scales = (self._readonly("wire_scales")
                  if codes.dtype == np.int8 else None)
        return WireRows("int8" if scales is not None else "fp16", codes,
                        scales, dtype)

    def adopt(self, dataset) -> None:
        """Re-point ``dataset``'s features, labels and CSR topology at
        read-only views of the segment, so its private copies can go:
        the dataset then lives once, here (see the module's lifetime
        contract). The views stay readable after :meth:`close` and
        :meth:`unlink`, and a later :meth:`create` copies from them."""
        dataset.features = self._readonly("features")
        dataset.labels = self._readonly("labels")
        dataset.graph.indptr = self._readonly("indptr")
        dataset.graph.indices = self._readonly("indices")

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
        """Drop the store's views. Idempotent; never raises. The mapping
        goes with the last array over it, so one still held stays
        readable."""
        self._closed = True
        self._views.clear()
        self._csr = None

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


def _finalize_store(shm: shared_memory.SharedMemory) -> None:
    """GC-time guard: never leak a segment name past the owning
    store."""
    try:
        shm.unlink()
    except Exception:
        pass
