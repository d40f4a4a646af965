"""Synthetic graph generator.

The paper evaluates on three OGB graphs (Table III). Without network access
we synthesize graphs that preserve the properties the timing model is
sensitive to: vertex count, average degree, and a heavy-tailed degree
distribution (which controls neighbor-overlap and therefore |V^0| per
mini-batch — the quantity the FPGA Feature Duplicator exploits).

The generator is fully vectorized and deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from .csr import CSRGraph


def _rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def power_law_graph(num_vertices: int, avg_degree: float,
                    exponent: float = 2.1,
                    max_degree_fraction: float = 0.02,
                    source_exponent: float = 2.6,
                    seed: int | np.random.Generator = 0) -> CSRGraph:
    """Directed graph whose *in*-degree follows a truncated power law.

    Destination endpoints are drawn from a Zipf-like rank distribution over
    vertices; sources are uniform. This produces hub vertices like
    citation/product graphs: a few vertices are referenced by a large
    fraction of edges, which is what makes neighbor sampling dedup
    effective (and the FPGA Feature Duplicator useful).

    Parameters
    ----------
    exponent:
        Target *degree-distribution* exponent γ (P(deg = d) ∝ d^-γ);
        2.0-2.3 matches web/citation graphs. Internally converted to the
        rank-weight exponent α = 1 / (γ - 1) (preferential-attachment
        correspondence); using γ directly as the rank exponent would give
        one vertex the majority of all edges.
    max_degree_fraction:
        Upper bound on any vertex's expected in-degree as a fraction of
        ``num_vertices``. Scaled-down graphs keep the full graph's average
        degree, which would otherwise let the top hub touch most of the
        graph; real OGB hubs reach only ~0.2-0.7% of vertices.
    source_exponent:
        Degree exponent for the *source* endpoints. Uniform sources would
        give every vertex an out-degree near the mean, but real graphs
        have median degree well below the mean (most papers cite few
        others); a milder skew on sources reproduces that, which matters
        because neighbor-sampling traffic scales with
        ``E[min(degree, fanout)]``, dominated by low-degree vertices.
    """
    if num_vertices <= 0:
        raise GraphError("num_vertices must be positive")
    if avg_degree <= 0:
        raise GraphError("avg_degree must be positive")
    if exponent <= 1.0:
        raise GraphError("exponent must be > 1 for a normalizable tail")
    if not 0.0 < max_degree_fraction <= 1.0:
        raise GraphError("max_degree_fraction must be in (0, 1]")
    rng = _rng(seed)
    num_edges = int(round(num_vertices * avg_degree))
    alpha = 1.0 / (exponent - 1.0)

    # Rank-based Zipf sampling via inverse-CDF on cumulative rank weights.
    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    # Cap hub probability: expected in-degree of vertex i is
    # num_edges * w_i / Σw; clip so it stays below the fraction cap.
    # A few clip-renormalize rounds converge (weights only shrink).
    prob_cap = max_degree_fraction * num_vertices / max(num_edges, 1)
    if prob_cap < 1.0:
        for _ in range(8):
            p = weights / weights.sum()
            over = p > prob_cap
            if not over.any():
                break
            weights[over] = prob_cap * weights.sum()
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    u = rng.random(num_edges)
    popular = np.searchsorted(cdf, u).astype(np.int64)

    # Scatter popularity ranks onto shuffled vertex ids so hubs are spread
    # across the id space (avoids artificial locality).
    perm = rng.permutation(num_vertices).astype(np.int64)
    dst = perm[np.clip(popular, 0, num_vertices - 1)]

    # Sources: milder power law (independent rank permutation).
    alpha_src = 1.0 / (source_exponent - 1.0)
    w_src = ranks ** (-alpha_src)
    cdf_src = np.cumsum(w_src)
    cdf_src /= cdf_src[-1]
    src_rank = np.searchsorted(cdf_src, rng.random(num_edges))
    perm_src = rng.permutation(num_vertices).astype(np.int64)
    src = perm_src[np.clip(src_rank, 0, num_vertices - 1)]
    return CSRGraph.from_edges(src, dst, num_vertices, dedup=False)
