"""Unit tests for repro.graph.datasets and repro.graph.partition."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.graph.datasets import (
    DATASET_REGISTRY,
    _make_labels,
    load_dataset,
    tiny_dataset,
)
from repro.graph.generators import power_law_graph
from repro.graph.partition import (
    bfs_partition,
    hash_partition,
    partition_quality,
)
from repro.graph.validate import check_graph


class TestRegistry:
    def test_registry_matches_table3(self):
        p = DATASET_REGISTRY["ogbn-products"]
        assert (p.num_vertices, p.num_edges) == (2_449_029, 61_859_140)
        assert (p.feature_dim, p.hidden_dim, p.num_classes) == \
            (100, 256, 47)
        pp = DATASET_REGISTRY["ogbn-papers100M"]
        assert (pp.num_vertices, pp.num_edges) == \
            (111_059_956, 1_615_685_872)
        assert (pp.feature_dim, pp.num_classes) == (128, 172)
        m = DATASET_REGISTRY["mag240m"]
        assert (m.num_vertices, m.num_edges) == \
            (121_751_666, 1_297_748_926)
        assert (m.feature_dim, m.num_classes) == (756, 153)

    def test_iterations_per_epoch(self):
        spec = DATASET_REGISTRY["ogbn-papers100M"]
        assert spec.iterations_per_epoch(1024, 4) == \
            -(-spec.train_count // 4096)
        assert spec.iterations_per_epoch(10**9, 1) == 1

    def test_train_fraction_small_for_large_graphs(self):
        assert DATASET_REGISTRY["ogbn-papers100M"].train_fraction < 0.02
        assert DATASET_REGISTRY["mag240m"].train_fraction < 0.02


class TestLoadDataset:
    def test_load_with_alias(self):
        ds = load_dataset("products", scale=1 / 2048, seed=0)
        assert ds.name == "ogbn-products"
        check_graph(ds.graph, require_symmetric=True)

    def test_unknown_dataset(self):
        with pytest.raises(GraphError):
            load_dataset("imagenet")

    def test_invalid_scale(self):
        with pytest.raises(GraphError):
            load_dataset("products", scale=0.0)
        with pytest.raises(GraphError):
            load_dataset("products", scale=2.0)

    def test_feature_dims_preserved_at_any_scale(self):
        ds = load_dataset("papers100m", scale=1 / 8192, seed=1)
        assert ds.features.shape[1] == 128
        assert ds.labels.max() < 172
        assert ds.features.dtype == np.float32

    def test_edge_density_tracks_spec(self):
        ds = load_dataset("papers100m", scale=1 / 2048, seed=0)
        target = ds.spec.num_edges * ds.scale
        assert 0.8 * target < ds.graph.num_edges < 1.3 * target

    def test_deterministic(self):
        a = load_dataset("products", scale=1 / 2048, seed=3)
        b = load_dataset("products", scale=1 / 2048, seed=3)
        assert a.graph == b.graph
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_train_ids_within_range(self):
        ds = load_dataset("products", scale=1 / 2048, seed=0)
        assert ds.train_ids.size > 0
        assert ds.train_ids.max() < ds.graph.num_vertices

    def test_labels_learnable_signal(self):
        # Labels correlate with features by construction: a linear probe
        # fit on half the data must beat chance on the other half.
        ds = tiny_dataset(num_vertices=800, feature_dim=16,
                          num_classes=4, seed=2)
        X, y = ds.features, ds.labels
        half = X.shape[0] // 2
        from numpy.linalg import lstsq
        onehot = np.eye(4)[y[:half]]
        W, *_ = lstsq(X[:half], onehot, rcond=None)
        pred = np.argmax(X[half:] @ W, axis=1)
        assert (pred == y[half:]).mean() > 0.4   # chance = 0.25

    def test_full_scale_feature_bytes(self):
        ds = load_dataset("mag240m", scale=1 / 8192, seed=0)
        # MAG240M full-scale features are ~368 GB in fp32 — the paper's
        # "does not fit in device memory" premise.
        assert ds.full_scale_feature_nbytes() > 300e9

    def test_tiny_dataset_validates(self):
        ds = tiny_dataset(seed=0)
        check_graph(ds.graph, require_symmetric=True)
        assert ds.train_mask.any()
        with pytest.raises(GraphError):
            tiny_dataset(num_vertices=4)


def _oracle_symmetrize(graph):
    """The original coalescing recipe: both directions concatenated,
    ``np.unique(return_index=True)`` on the packed keys, a gather, then
    a stable argsort by source."""
    n = graph.num_vertices
    src, dst = graph.edges()
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    _, keep = np.unique(src * np.int64(n) + dst, return_index=True)
    src, dst = src[keep], dst[keep]
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[order], minlength=n), out=indptr[1:])
    return indptr, dst[order]


def _oracle_features(rng, num_vertices, feature_dim):
    """The original one-shot draw: a float64 matrix, then ``astype``."""
    return rng.standard_normal(
        (num_vertices, feature_dim)).astype(np.float32)


def _oracle_load(name, scale, seed):
    """``load_dataset``'s recipe written out with the original steps."""
    spec = DATASET_REGISTRY[name]
    n = max(64, int(round(spec.num_vertices * scale)))
    rng = np.random.default_rng(seed)
    indptr, indices = _oracle_symmetrize(power_law_graph(
        num_vertices=n, avg_degree=spec.avg_degree * 0.53,
        exponent=spec.degree_exponent, seed=rng))
    features = _oracle_features(rng, n, spec.feature_dim)
    labels = _make_labels(n, spec.num_classes, features, rng)
    train_mask = np.zeros(n, dtype=bool)
    n_train = max(1, int(round(n * spec.train_fraction)))
    train_mask[rng.choice(n, size=n_train, replace=False)] = True
    return indptr, indices, features, labels, train_mask


def _oracle_tiny(seed, num_vertices=256, feature_dim=16, num_classes=4,
                 avg_degree=8.0):
    rng = np.random.default_rng(seed)
    indptr, indices = _oracle_symmetrize(
        power_law_graph(num_vertices, avg_degree, seed=rng))
    features = _oracle_features(rng, num_vertices, feature_dim)
    labels = _make_labels(num_vertices, num_classes, features, rng)
    train_mask = rng.random(num_vertices) < 0.5
    if not train_mask.any():
        train_mask[0] = True
    return indptr, indices, features, labels, train_mask


def _assert_same_bytes(ds, oracle):
    got = (ds.graph.indptr, ds.graph.indices, ds.features, ds.labels,
           ds.train_mask)
    for field, a, b in zip(
            ("indptr", "indices", "features", "labels", "train_mask"),
            got, oracle):
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


class TestMaterialization:
    """``load_dataset``/``tiny_dataset`` draw features blockwise and
    coalesce edges by one packed-key sort; the bytes must equal the
    original one-shot recipe's, and the traced peak must stay near the
    returned footprint."""

    @pytest.mark.parametrize("block_values", [None, 1000],
                             ids=["default-blocks", "small-blocks"])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", sorted(DATASET_REGISTRY))
    def test_registry_datasets_equal_the_oracle(self, name, seed,
                                                block_values,
                                                monkeypatch):
        if block_values is not None:
            monkeypatch.setattr(datasets, "FEATURE_BLOCK_VALUES",
                                block_values)
        # ~2 400 vertices: mag240m's 756 columns need two default blocks.
        scale = 2400 / DATASET_REGISTRY[name].num_vertices
        _assert_same_bytes(load_dataset(name, scale, seed=seed),
                           _oracle_load(name, scale, seed))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tiny_dataset_equals_the_oracle_across_blocks(
            self, seed, monkeypatch):
        # 16 columns, 40 values per block: 2-row blocks, 128 of them.
        monkeypatch.setattr(datasets, "FEATURE_BLOCK_VALUES", 40)
        _assert_same_bytes(tiny_dataset(seed=seed), _oracle_tiny(seed))

    def test_block_draws_leave_the_stream_where_one_draw_does(
            self, monkeypatch):
        monkeypatch.setattr(datasets, "FEATURE_BLOCK_VALUES", 7)
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        got = datasets._draw_features(a, 13, 3)
        assert got.tobytes() == _oracle_features(b, 13, 3).tobytes()
        assert a.random() == b.random()

    @pytest.mark.parametrize("name, scale", [("mag240m", 1 / 8192),
                                             ("ogbn-products", 1 / 32)])
    def test_materialization_peak_near_final_footprint(self, name,
                                                       scale):
        tracemalloc.start()
        try:
            ds = load_dataset(name, scale, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        final = (ds.features.nbytes + ds.graph.nbytes + ds.labels.nbytes
                 + ds.train_mask.nbytes)
        assert peak <= 1.6 * final, (peak / final, name)


class TestPartition:
    def test_hash_partition_balance(self, medium_graph):
        parts = hash_partition(medium_graph, 4, seed=0)
        q = partition_quality(medium_graph, parts)
        assert q.imbalance < 1.1
        assert 0.5 < q.edge_cut_fraction <= 0.8

    def test_bfs_partition_covers_all(self, medium_graph):
        parts = bfs_partition(medium_graph, 4, seed=0)
        assert parts.min() >= 0
        assert parts.max() == 3
        sizes = np.bincount(parts)
        assert sizes.min() > 0

    def test_bfs_beats_hash_on_cut(self, medium_graph):
        bq = partition_quality(medium_graph,
                               bfs_partition(medium_graph, 4, seed=0))
        hq = partition_quality(medium_graph,
                               hash_partition(medium_graph, 4, seed=0))
        assert bq.edge_cut_fraction <= hq.edge_cut_fraction

    def test_single_partition(self, medium_graph):
        parts = bfs_partition(medium_graph, 1)
        q = partition_quality(medium_graph, parts)
        assert q.edge_cut_fraction == 0.0
        assert q.replication_factor == 1.0

    def test_invalid_args(self, medium_graph):
        with pytest.raises(GraphError):
            hash_partition(medium_graph, 0)
        with pytest.raises(GraphError):
            bfs_partition(medium_graph, 0)
        with pytest.raises(GraphError):
            partition_quality(medium_graph, np.zeros(3, dtype=np.int64))


class TestValidate:
    def test_check_graph_detects_self_loop(self):
        g = CSRGraph.from_edges([0], [0], 2)
        with pytest.raises(GraphError):
            check_graph(g, forbid_self_loops=True)

    def test_check_graph_detects_duplicates(self):
        g = CSRGraph.from_edges([0, 0], [1, 1], 2)
        with pytest.raises(GraphError):
            check_graph(g, forbid_duplicates=True)

    def test_check_graph_detects_asymmetry(self):
        g = CSRGraph.from_edges([0], [1], 2)
        with pytest.raises(GraphError):
            check_graph(g, require_symmetric=True)
        check_graph(g.symmetrize(), require_symmetric=True)
