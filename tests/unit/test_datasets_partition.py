"""Unit tests for repro.graph.datasets and repro.graph.partition."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import (
    DATASET_REGISTRY,
    load_dataset,
    tiny_dataset,
)
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
