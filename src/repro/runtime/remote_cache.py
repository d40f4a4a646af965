"""Degree-aware cache of hot *remote* feature rows (PaGraph-style).

:mod:`repro.baselines.pagraph` models the policy analytically — cache
the highest-out-degree vertices, and neighbor sampling (which touches
vertices roughly proportionally to degree) hits the cumulative degree
mass of the cached fraction (:func:`repro.baselines.common.degree_ordered_hit_ratio`).
This module promotes that closed form into a real lookup structure the
sharded training plane serves remote gathers from: each worker admits
the hottest vertices of its **halo** (the remote vertices its batches
can touch, per :meth:`repro.graph.shard_map.ShardMap.halo`) once at
startup, copies their feature rows out of the interconnect-side store,
and answers per-batch lookups with hit/miss/byte counters the
backend's report and the kit's conservation tests audit:

* ``hits + misses == lookups`` — every looked-up row is classified
  exactly once;
* ``served_bytes == hits * row_bytes`` and
  ``missed_bytes == misses * row_bytes`` where ``row_bytes`` is
  ``feature_dim * dtype.itemsize`` — byte accounting is dtype-exact.

The cache is static by design (PaGraph's is too): admission happens
once, before training, so lookups are wait-free reads and the hit rate
against degree-proportional traffic matches the analytic model the
baselines charge PCIe traffic with.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


class RemoteFeatureCache:
    """A static, degree-ordered cache of remote feature rows.

    Parameters
    ----------
    capacity_rows:
        Maximum rows the cache may hold. Zero is legal (an always-miss
        cache — the "no cache" ablation arm with live counters).
    """

    def __init__(self, capacity_rows: int) -> None:
        if capacity_rows < 0:
            raise ConfigError("capacity_rows must be non-negative")
        self.capacity_rows = int(capacity_rows)
        self._ids = np.zeros(0, dtype=np.int64)     # sorted cached ids
        self._rows: np.ndarray | None = None        # aligned with _ids
        self._row_bytes = 0
        # Counters (the conservation invariants the tests pin).
        self.hits = 0
        self.misses = 0
        self.served_bytes = 0
        self.missed_bytes = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, candidates: np.ndarray, degrees: np.ndarray,
              features: np.ndarray,
              rows_of: np.ndarray | None = None) -> np.ndarray:
        """Fill the cache with the hottest candidates, once.

        Ranks ``candidates`` (global vertex ids) by descending
        ``degrees[candidate]`` — ties broken by ascending id, so
        admission is deterministic — keeps the top ``capacity_rows``,
        and copies their rows out of ``features``. ``rows_of`` maps a
        global id to its row in ``features`` (the shard-major
        ``shard_row`` translation); ``None`` means features are in
        global order. Returns the admitted ids (sorted).
        """
        if self._rows is not None:
            raise ConfigError("cache already admitted (static policy)")
        candidates = np.unique(np.asarray(candidates, dtype=np.int64))
        take = min(self.capacity_rows, candidates.size)
        if take > 0:
            rank = np.lexsort(
                (candidates, -np.asarray(degrees)[candidates]))
            chosen = np.sort(candidates[rank[:take]])
        else:
            chosen = np.zeros(0, dtype=np.int64)
        src_rows = chosen if rows_of is None \
            else np.asarray(rows_of)[chosen]
        self._ids = chosen
        self._rows = np.ascontiguousarray(features[src_rows])
        self._row_bytes = int(self._rows.dtype.itemsize
                              * int(np.prod(self._rows.shape[1:],
                                            dtype=np.int64)))
        return chosen

    @property
    def size_rows(self) -> int:
        return int(self._ids.size)

    @property
    def cached_ids(self) -> np.ndarray:
        """The admitted global ids (sorted, read-only view)."""
        return self._ids

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, ids: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Serve a batch of global ids.

        Returns ``(hit_mask, hit_rows)``: a boolean mask over ``ids``
        and the cached rows for the hits, in ``ids[hit_mask]`` order
        and the store's dtype. Updates the hit/miss/byte counters;
        callers fetch the misses from the remote store themselves (and
        bill the remote bytes). Only an admitted cache can be asked.
        """
        if self._rows is None:
            raise ConfigError("lookup before admit")
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self._ids, ids)
        hit_mask = np.zeros(ids.size, dtype=bool)
        if self._ids.size:
            hit_mask = self._ids[np.minimum(pos, self._ids.size - 1)] == ids
        n_hit = int(hit_mask.sum())
        n_miss = int(ids.size - n_hit)
        self.hits += n_hit
        self.misses += n_miss
        self.served_bytes += n_hit * self._row_bytes
        self.missed_bytes += n_miss * self._row_bytes
        return hit_mask, self._rows[pos[hit_mask]]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    @property
    def row_bytes(self) -> int:
        """Bytes per cached row (``feature_dim * dtype.itemsize``)."""
        return self._row_bytes

    def stats(self) -> dict[str, int]:
        """Counter snapshot in the ``kernel_stats`` key dialect."""
        return {
            "remote_cache_rows": self.size_rows,
            "remote_cache_hits": self.hits,
            "remote_cache_misses": self.misses,
            "remote_cache_served_bytes": self.served_bytes,
        }
