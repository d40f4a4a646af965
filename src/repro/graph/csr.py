"""Compressed-sparse-row graph storage.

:class:`CSRGraph` stores a directed graph as ``(indptr, indices)`` arrays in
the usual CSR convention: the out-neighbors of vertex ``v`` are
``indices[indptr[v]:indptr[v + 1]]``. For GNN aggregation we usually need
*in*-neighbors (messages flow source → destination), so the structure can
lazily build and cache its transpose.

Design notes (following the hpc-parallel guides):

* all hot paths are vectorized NumPy; no per-edge Python loops;
* ``indptr`` and ``indices`` are C-contiguous int64 (whatever integer
  dtype the caller hands in is widened);
* neighbor access returns *views* into ``indices`` — never copies.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError


def _as_index_array(a, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(a)
    if arr.ndim != 1:
        raise GraphError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise GraphError(f"{name} must be an integer array, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _coalesced(keys: np.ndarray, num_vertices: int) -> "CSRGraph":
    """CSR of the distinct packed ``src * num_vertices + dst`` keys.

    Sorts ``keys`` in place. The sorted distinct keys are the CSR in
    order (grouped by source, then by destination), so one sort both
    drops duplicates and builds the rows. Besides a boolean mask, the
    only other edge-sized array is the kept keys, decoded in place into
    ``indices``; ``indptr`` is where each row's first key would sort.
    """
    keys.sort()
    fresh = np.empty(keys.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    indices = keys[fresh]
    n = np.int64(num_vertices)
    indptr = np.searchsorted(indices, np.arange(n + 1) * n)
    np.remainder(indices, n, out=indices)
    return CSRGraph(indptr, indices)


class CSRGraph:
    """Directed graph in CSR form.

    Parameters
    ----------
    indptr:
        ``(num_vertices + 1,)`` monotone array of row offsets.
    indices:
        ``(num_edges,)`` array of destination vertices, grouped by source.
    num_vertices:
        Optional explicit vertex count; defaults to ``len(indptr) - 1``.

    Raises
    ------
    GraphError
        If the arrays do not form a valid CSR structure.
    """

    __slots__ = ("indptr", "indices", "num_vertices", "_transpose",
                 "_out_degrees")

    def __init__(self, indptr, indices, num_vertices: int | None = None):
        self.indptr = _as_index_array(indptr, "indptr")
        self.indices = _as_index_array(indices, "indices")
        if self.indptr.size == 0:
            raise GraphError("indptr must have at least one element")
        n = self.indptr.size - 1
        if num_vertices is not None and num_vertices != n:
            raise GraphError(
                f"num_vertices={num_vertices} inconsistent with indptr "
                f"(implies {n})")
        self.num_vertices = n
        if self.indptr[0] != 0:
            raise GraphError("indptr[0] must be 0")
        if self.indptr[-1] != self.indices.size:
            raise GraphError(
                f"indptr[-1]={self.indptr[-1]} must equal "
                f"len(indices)={self.indices.size}")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if self.indices.size and (self.indices.min() < 0
                                  or self.indices.max() >= n):
            raise GraphError("edge endpoint out of range")
        self._transpose: CSRGraph | None = None
        self._out_degrees: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, src, dst, num_vertices: int,
                   dedup: bool = False) -> "CSRGraph":
        """Build a CSR graph from parallel ``src``/``dst`` edge arrays.

        Parameters
        ----------
        src, dst:
            Edge endpoint arrays of equal length.
        num_vertices:
            Total vertex count (endpoints must be < this).
        dedup:
            Drop duplicate ``(src, dst)`` pairs when True; each row's
            neighbors then come out sorted. Otherwise duplicates are kept
            in input order.
        """
        src = _as_index_array(src, "src")
        dst = _as_index_array(dst, "dst")
        if src.size != dst.size:
            raise GraphError("src and dst must have equal length")
        if num_vertices <= 0:
            raise GraphError("num_vertices must be positive")
        if src.size and (min(src.min(), dst.min()) < 0
                         or max(src.max(), dst.max()) >= num_vertices):
            raise GraphError("edge endpoint out of range")
        if dedup:
            return _coalesced(src * np.int64(num_vertices) + dst,
                              num_vertices)
        indices = dst[np.argsort(src, kind="stable")]
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
        return cls(indptr, indices)

    @classmethod
    def empty(cls, num_vertices: int) -> "CSRGraph":
        """Graph with ``num_vertices`` vertices and no edges."""
        if num_vertices <= 0:
            raise GraphError("num_vertices must be positive")
        return cls(np.zeros(num_vertices + 1, dtype=np.int64),
                   np.zeros(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.indices.size)

    def out_degree(self, v: int | np.ndarray) -> np.ndarray | int:
        """Out-degree of one vertex or an array of vertices."""
        return self.indptr[np.asarray(v) + 1] - self.indptr[np.asarray(v)]

    @property
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex (cached)."""
        if self._out_degrees is None:
            self._out_degrees = np.diff(self.indptr)
        return self._out_degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` as a view into ``indices`` (no copy)."""
        if not 0 <= v < self.num_vertices:
            raise GraphError(f"vertex {v} out of range")
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    @property
    def avg_degree(self) -> float:
        """Average out-degree."""
        return self.num_edges / self.num_vertices

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` COO arrays (src is materialized)."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                        self.out_degrees)
        return src, self.indices.copy()

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def transpose(self) -> "CSRGraph":
        """Graph with all edges reversed (cached after first call).

        The transpose is the CSC view of this graph: its ``neighbors(v)``
        are the *in*-neighbors of ``v`` here, which is what GNN aggregation
        consumes.
        """
        if self._transpose is None:
            src, dst = self.edges()
            self._transpose = CSRGraph.from_edges(
                dst, src, self.num_vertices)
        return self._transpose

    def symmetrize(self) -> "CSRGraph":
        """Return the graph with every edge present in both directions.

        Duplicate edges are coalesced. Mirrors the usual OGB preprocessing
        of treating citation/product graphs as undirected. Both
        directions' packed keys go into one array, so the peak is that
        array plus the coalesced result.
        """
        n, m = np.int64(self.num_vertices), self.num_edges
        src = np.repeat(np.arange(n), self.out_degrees)
        keys = np.empty(2 * m, dtype=np.int64)
        np.multiply(src, n, out=keys[:m])
        keys[:m] += self.indices
        np.multiply(self.indices, n, out=keys[m:])
        keys[m:] += src
        del src
        return _coalesced(keys, self.num_vertices)

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes of topology storage (indptr + indices)."""
        return int(self.indptr.nbytes + self.indices.nbytes)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CSRGraph(num_vertices={self.num_vertices}, "
                f"num_edges={self.num_edges})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self) -> int:  # structures are mutable-array backed
        raise TypeError("CSRGraph is not hashable")
