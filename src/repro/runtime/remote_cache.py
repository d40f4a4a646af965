"""Degree-aware cache of hot *remote* feature rows (PaGraph-style).

:mod:`repro.baselines.pagraph` models the policy analytically — cache
the highest-out-degree vertices, and neighbor sampling (which touches
vertices roughly proportionally to degree) hits the cumulative degree
mass of the cached fraction (:func:`repro.baselines.common.degree_ordered_hit_ratio`).
This module promotes that closed form into a real lookup structure the
sharded training plane bills remote rows against: each worker admits
the hottest vertices of its **halo** (the remote vertices its batches
can touch, per :func:`repro.graph.partition.halo`) once at startup and
answers per-batch lookups with a hit mask and hit/miss/byte counters
the backend's report and the kit's conservation tests audit:

* ``hits + misses == lookups`` — every looked-up row is classified
  exactly once;
* ``served_bytes == hits * row_bytes`` and
  ``missed_bytes == misses * row_bytes``, where ``row_bytes`` (one
  feature row, ``feature_dim * dtype.itemsize``) is given at
  construction — byte accounting is dtype-exact.

The cache holds ids only: a cached row's bytes are the store's own, so
a hit changes which interconnect the row is billed to, never the row.

The cache is static by design (PaGraph's is too): admission happens
once, before training, so lookups are wait-free reads and the hit rate
against degree-proportional traffic matches the analytic model the
baselines charge PCIe traffic with.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


class RemoteFeatureCache:
    """A static, degree-ordered set of cached remote vertex ids.

    Parameters
    ----------
    capacity_rows:
        Maximum rows the cache may hold. Zero is legal (an always-miss
        cache — the "no cache" ablation arm with live counters).
    row_bytes:
        Bytes of one feature row, what every hit and miss is billed.
    """

    def __init__(self, capacity_rows: int, row_bytes: int) -> None:
        if capacity_rows < 0:
            raise ConfigError("capacity_rows must be non-negative")
        self.capacity_rows = int(capacity_rows)
        self.row_bytes = int(row_bytes)
        self._ids: np.ndarray | None = None         # sorted cached ids
        # Counters (the conservation invariants the tests pin).
        self.hits = 0
        self.misses = 0
        self.served_bytes = 0
        self.missed_bytes = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, candidates: np.ndarray,
              degrees: np.ndarray) -> np.ndarray:
        """Fill the cache with the hottest candidates, once.

        Ranks ``candidates`` (global vertex ids) by descending
        ``degrees[candidate]`` — ties broken by ascending id, so
        admission is deterministic — and keeps the top
        ``capacity_rows``. Returns the admitted ids (sorted).
        """
        if self._ids is not None:
            raise ConfigError("cache already admitted (static policy)")
        candidates = np.unique(np.asarray(candidates, dtype=np.int64))
        rank = np.lexsort((candidates, -np.asarray(degrees)[candidates]))
        self._ids = np.sort(candidates[rank[:self.capacity_rows]])
        return self._ids

    @property
    def size_rows(self) -> int:
        return 0 if self._ids is None else int(self._ids.size)

    @property
    def cached_ids(self) -> np.ndarray | None:
        """The admitted global ids (sorted), ``None`` before admit."""
        return self._ids

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, ids: np.ndarray) -> np.ndarray:
        """Classify a batch of global ids: the boolean hit mask over
        ``ids``. Updates the hit/miss/byte counters; callers bill the
        misses as remote fetches themselves. Only an admitted cache can
        be asked."""
        if self._ids is None:
            raise ConfigError("lookup before admit")
        ids = np.asarray(ids, dtype=np.int64)
        hit_mask = np.isin(ids, self._ids)
        n_hit = int(hit_mask.sum())
        n_miss = int(ids.size - n_hit)
        self.hits += n_hit
        self.misses += n_miss
        self.served_bytes += n_hit * self.row_bytes
        self.missed_bytes += n_miss * self.row_bytes
        return hit_mask

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

    def stats(self) -> dict[str, int]:
        """Counter snapshot in the ``kernel_stats`` key dialect."""
        return {
            "remote_cache_rows": self.size_rows,
            "remote_cache_hits": self.hits,
            "remote_cache_misses": self.misses,
            "remote_cache_served_bytes": self.served_bytes,
        }
