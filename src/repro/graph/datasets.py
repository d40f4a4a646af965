"""Scaled synthetic stand-ins for the paper's evaluation datasets.

Table III of the paper:

========================  ===========  =============  ====  ===  ====
Dataset                   #Vertices    #Edges         f0    f1   f2
========================  ===========  =============  ====  ===  ====
ogbn-products             2,449,029    61,859,140     100   256  47
ogbn-papers100M           111,059,956  1,615,685,872  128   256  172
MAG240M (homo)            121,751,666  1,297,748,926  756   256  153
========================  ===========  =============  ====  ===  ====

We cannot download OGB data (no network) and cannot hold billion-edge graphs
in this environment, so :func:`load_dataset` materializes a *scaled* graph
(default ~1/64 - 1/2048 of the original vertex count) that preserves:

* average degree (controls |E^l| per mini-batch),
* a heavy-tailed degree distribution (controls neighbor dedup, i.e. |V^0|),
* the exact layer dimensions f0/f1/f2 (controls every traffic/compute term),
* the training-set fraction (controls iterations per epoch).

The *full-scale* statistics are retained on :class:`DatasetSpec` so the
analytic performance model can still reason about the paper-sized graphs
(e.g. the Fig. 9 scalability projection and Table VI epoch-time estimates).

Materialization stays near the returned footprint: features are drawn in
:data:`FEATURE_BLOCK_VALUES`-value blocks straight into the float32
matrix, and the symmetrized topology is coalesced by one in-place sort of
packed edge keys. The traced peak of :func:`load_dataset` is ~1.2x the
returned arrays for ``mag240m`` and ~1.3x for ``ogbn-products`` (it was
~2.9x and ~3.3x with a float64 feature copy and an ``np.unique``
dedup); for ``ogbn-papers100M`` the label logits (``n x 172``) outweigh
the features and set the peak. The bytes are the same for every
``(name, scale, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GraphError
from .csr import CSRGraph
from .generators import power_law_graph

#: Float64 normal draws per block when filling a feature matrix (about
#: 1 M, so the draw scratch stays ~8 MB whatever the dataset's size).
FEATURE_BLOCK_VALUES = 1 << 20

#: Train-set sizes of the real datasets (OGB leaderboard splits), used to
#: derive iterations-per-epoch: products 196,615; papers100M 1,207,179;
#: MAG240M 1,112,392 labelled arxiv papers.
_TRAIN_COUNTS = {
    "ogbn-products": 196_615,
    "ogbn-papers100M": 1_207_179,
    "mag240m": 1_112_392,
}


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one evaluation dataset.

    ``num_vertices``/``num_edges``/``train_count`` describe the *real*
    (paper-scale) dataset; scaled instances derive their own counts from
    these via ``scale``.
    """

    name: str
    num_vertices: int
    num_edges: int
    feature_dim: int          # f0
    hidden_dim: int           # f1
    num_classes: int          # f2
    train_count: int
    default_scale: float
    degree_exponent: float = 2.1

    @property
    def avg_degree(self) -> float:
        """Average degree of the full-scale graph."""
        return self.num_edges / self.num_vertices

    @property
    def train_fraction(self) -> float:
        """Fraction of vertices that are training targets."""
        return self.train_count / self.num_vertices

    def iterations_per_epoch(self, minibatch_size: int,
                             num_trainers: int) -> int:
        """Iterations to cover the full-scale train set.

        Each of the ``num_trainers`` trainers consumes one mini-batch per
        iteration (paper §V), so an epoch is ``ceil(train / (mb * n))``.
        """
        per_iter = minibatch_size * num_trainers
        return max(1, -(-self.train_count // per_iter))


#: Registry keyed by canonical dataset name. ``default_scale`` keeps the
#: largest dataset's scaled feature matrix under ~200 MB.
DATASET_REGISTRY: dict[str, DatasetSpec] = {
    "ogbn-products": DatasetSpec(
        name="ogbn-products",
        num_vertices=2_449_029,
        num_edges=61_859_140,
        feature_dim=100,
        hidden_dim=256,
        num_classes=47,
        train_count=_TRAIN_COUNTS["ogbn-products"],
        default_scale=1.0 / 128,
        degree_exponent=2.0,   # product co-purchase graphs are denser/hubbier
    ),
    "ogbn-papers100M": DatasetSpec(
        name="ogbn-papers100M",
        num_vertices=111_059_956,
        num_edges=1_615_685_872,
        feature_dim=128,
        hidden_dim=256,
        num_classes=172,
        train_count=_TRAIN_COUNTS["ogbn-papers100M"],
        default_scale=1.0 / 2048,
    ),
    "mag240m": DatasetSpec(
        name="mag240m",
        num_vertices=121_751_666,
        num_edges=1_297_748_926,
        feature_dim=756,
        hidden_dim=256,
        num_classes=153,
        train_count=_TRAIN_COUNTS["mag240m"],
        default_scale=1.0 / 4096,
    ),
}

#: Aliases accepted by :func:`load_dataset`.
_ALIASES = {
    "products": "ogbn-products",
    "papers100m": "ogbn-papers100M",
    "ogbn-papers100m": "ogbn-papers100M",
    "mag240m (homo)": "mag240m",
    "mag240m-homo": "mag240m",
}


@dataclass
class GraphDataset:
    """A materialized (scaled) dataset instance.

    Attributes
    ----------
    spec:
        Full-scale :class:`DatasetSpec`.
    scale:
        Vertex-count scale factor actually used.
    graph:
        Symmetrized :class:`CSRGraph` topology (host-resident).
    features:
        ``(num_vertices, f0)`` float32 feature matrix (host-resident).
    labels:
        ``(num_vertices,)`` int64 class labels in ``[0, num_classes)``.
    train_mask:
        Boolean mask of training target vertices.
    """

    spec: DatasetSpec
    scale: float
    graph: CSRGraph
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray

    @property
    def name(self) -> str:
        """Canonical dataset name."""
        return self.spec.name

    @property
    def train_ids(self) -> np.ndarray:
        """Vertex ids of training targets."""
        return np.flatnonzero(self.train_mask)

    @property
    def layer_dims(self) -> tuple[int, int, int]:
        """(f0, f1, f2) for the paper's standard 2-layer models."""
        return (self.spec.feature_dim, self.spec.hidden_dim,
                self.spec.num_classes)

    def full_scale_feature_nbytes(self) -> int:
        """Bytes the *full-scale* feature matrix would occupy (float32)."""
        return self.spec.num_vertices * self.spec.feature_dim * 4


def _draw_features(rng: np.random.Generator, num_vertices: int,
                   feature_dim: int) -> np.ndarray:
    """``rng.standard_normal((num_vertices, feature_dim))`` rounded to
    float32, drawn in row blocks through one float64 scratch.

    The stream is consumed row-major either way, so the result and the
    generator's next draw equal the one-shot draw's bit for bit, without
    a float64 copy of the whole matrix.
    """
    features = np.empty((num_vertices, feature_dim), dtype=np.float32)
    rows = max(1, FEATURE_BLOCK_VALUES // feature_dim)
    scratch = np.empty((min(rows, num_vertices), feature_dim))
    for start in range(0, num_vertices, rows):
        block = features[start:start + rows]
        draw = scratch[:block.shape[0]]
        rng.standard_normal(out=draw)
        block[...] = draw
    return features


def _make_labels(num_vertices: int, num_classes: int, features: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Labels correlated with features so training can actually learn.

    A random linear probe over the first 16 feature columns defines the
    class; plus 10% label noise. This gives examples/benches a learnable
    signal without shipping real OGB labels.
    """
    probe_dim = min(16, features.shape[1])
    probe = rng.standard_normal((probe_dim, num_classes)).astype(np.float32)
    logits = features[:, :probe_dim] @ probe
    labels = np.argmax(logits, axis=1).astype(np.int64)
    noise = rng.random(num_vertices) < 0.1
    labels[noise] = rng.integers(0, num_classes, size=int(noise.sum()))
    return labels


def load_dataset(name: str, scale: float | None = None,
                 seed: int = 0) -> GraphDataset:
    """Materialize a scaled synthetic instance of a paper dataset.

    Parameters
    ----------
    name:
        One of ``"ogbn-products"``, ``"ogbn-papers100M"``, ``"mag240m"``
        (case-insensitive; common aliases accepted).
    scale:
        Vertex-count scale factor in ``(0, 1]``. Defaults to the registry's
        ``default_scale``. Tests use much smaller scales.
    seed:
        RNG seed for topology, features and labels.

    Raises
    ------
    GraphError
        For unknown names or invalid scales.
    """
    key = name.strip().lower()
    canonical = _ALIASES.get(key, key)
    # Registry keys are mixed-case; normalize lookup.
    by_lower = {k.lower(): k for k in DATASET_REGISTRY}
    if canonical.lower() not in by_lower:
        raise GraphError(
            f"unknown dataset {name!r}; known: {sorted(DATASET_REGISTRY)}")
    spec = DATASET_REGISTRY[by_lower[canonical.lower()]]

    if scale is None:
        scale = spec.default_scale
    if not 0.0 < scale <= 1.0:
        raise GraphError("scale must be in (0, 1]")

    num_vertices = max(64, int(round(spec.num_vertices * scale)))
    rng = np.random.default_rng(seed)
    # Symmetrization roughly doubles the directed edge count (duplicate
    # reverse edges collapse); generate at ~0.53x so the symmetrized graph
    # lands near scale * spec.num_edges, matching Table III densities.
    graph = power_law_graph(
        num_vertices=num_vertices,
        avg_degree=spec.avg_degree * 0.53,
        exponent=spec.degree_exponent,
        seed=rng,
    ).symmetrize()

    features = _draw_features(rng, graph.num_vertices, spec.feature_dim)
    labels = _make_labels(graph.num_vertices, spec.num_classes, features,
                          rng)

    train_mask = np.zeros(graph.num_vertices, dtype=bool)
    n_train = max(1, int(round(graph.num_vertices * spec.train_fraction)))
    train_mask[rng.choice(graph.num_vertices, size=n_train,
                          replace=False)] = True

    return GraphDataset(spec=spec, scale=scale, graph=graph,
                        features=features, labels=labels,
                        train_mask=train_mask)


def tiny_dataset(num_vertices: int = 256, feature_dim: int = 16,
                 num_classes: int = 4, avg_degree: float = 8.0,
                 seed: int = 0) -> GraphDataset:
    """A small ad-hoc dataset for unit tests and the quickstart example."""
    if num_vertices < 8:
        raise GraphError("tiny_dataset needs at least 8 vertices")
    rng = np.random.default_rng(seed)
    graph = power_law_graph(num_vertices, avg_degree, seed=rng).symmetrize()
    features = _draw_features(rng, graph.num_vertices, feature_dim)
    labels = _make_labels(graph.num_vertices, num_classes, features, rng)
    train_mask = rng.random(graph.num_vertices) < 0.5
    if not train_mask.any():
        train_mask[0] = True
    spec = DatasetSpec(
        name="tiny",
        num_vertices=num_vertices,
        num_edges=graph.num_edges,
        feature_dim=feature_dim,
        hidden_dim=32,
        num_classes=num_classes,
        train_count=int(train_mask.sum()),
        default_scale=1.0,
    )
    return GraphDataset(spec=spec, scale=1.0, graph=graph,
                        features=features, labels=labels,
                        train_mask=train_mask)
