"""Structural validation for graphs and datasets.

:func:`check_graph` re-verifies every CSR invariant from first principles
(independent of the checks the constructor performs) and is used by tests,
by :func:`repro.graph.datasets.load_dataset` consumers, and as a debugging
aid. It raises :class:`repro.errors.GraphError` with a precise message on
the first violation found.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from .csr import CSRGraph


def check_graph(graph: CSRGraph, *, require_symmetric: bool = False,
                forbid_self_loops: bool = False,
                forbid_duplicates: bool = False) -> None:
    """Verify CSR structural invariants.

    Parameters
    ----------
    require_symmetric:
        Additionally require every edge to exist in both directions.
    forbid_self_loops:
        Fail if any ``(v, v)`` edge exists.
    forbid_duplicates:
        Fail if any ``(u, v)`` pair appears more than once.
    """
    indptr, indices = graph.indptr, graph.indices
    if indptr.ndim != 1 or indices.ndim != 1:
        raise GraphError("indptr and indices must be 1-D")
    if indptr[0] != 0:
        raise GraphError("indptr must start at 0")
    if indptr[-1] != indices.size:
        raise GraphError("indptr must end at num_edges")
    if np.any(np.diff(indptr) < 0):
        raise GraphError("indptr must be monotone non-decreasing")
    if indices.size:
        if indices.min() < 0 or indices.max() >= graph.num_vertices:
            raise GraphError("edge endpoint out of range")

    src, dst = graph.edges()
    if forbid_self_loops and np.any(src == dst):
        raise GraphError("graph contains self-loops")
    if forbid_duplicates and src.size:
        keys = src * np.int64(graph.num_vertices) + dst
        if np.unique(keys).size != keys.size:
            raise GraphError("graph contains duplicate edges")
    if require_symmetric:
        fwd = np.sort(src * np.int64(graph.num_vertices) + dst)
        rev = np.sort(dst * np.int64(graph.num_vertices) + src)
        if not np.array_equal(fwd, rev):
            raise GraphError("graph is not symmetric")
