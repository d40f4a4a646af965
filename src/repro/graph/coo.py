"""Edge-list (COO) helpers shared by samplers and kernel models.

The FPGA aggregation kernel (paper §IV-C) requires mini-batch edges sorted by
source vertex so the Feature Duplicator can reuse each fetched feature for
all of its out-edges back-to-back. :func:`sort_edges_by_src` implements that
ordering and :func:`source_run_lengths` exposes the reuse counts the kernel
model charges.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError


def sort_edges_by_src(src: np.ndarray,
                      dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return the edges stably sorted by source vertex.

    This is the edge order the FPGA scatter PEs consume (paper §IV-C:
    "HyScale-GNN first sorts the edges within a mini-batch by their source
    vertex so that edges with the same source vertex are executed in a
    back-to-back manner").
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise GraphError("src and dst must have equal shape")
    order = np.argsort(src, kind="stable")
    return src[order], dst[order]


def source_run_lengths(sorted_src: np.ndarray) -> np.ndarray:
    """Run lengths of equal consecutive sources in a src-sorted edge list.

    For a src-sorted list, run length of source ``v`` equals the number of
    times the Feature Duplicator can reuse ``X[v]`` after a single DDR fetch.
    """
    sorted_src = np.asarray(sorted_src)
    if sorted_src.size == 0:
        return np.zeros(0, dtype=np.int64)
    boundaries = np.flatnonzero(np.diff(sorted_src)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [sorted_src.size]])
    return (ends - starts).astype(np.int64)
