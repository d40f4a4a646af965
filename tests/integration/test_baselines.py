"""Integration tests for the comparator systems (Tables V-VII)."""

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.errors import ConfigError
from repro.graph.datasets import load_dataset
from repro.baselines import (
    DistDGLv2System,
    P3System,
    PaGraphSystem,
    PyGMultiGPUBaseline,
)
from repro.hw.topology import hyscale_cpu_fpga_platform
from repro.runtime import TrainingSession, VirtualTimeBackend
from repro.config import ABLATION_PRESETS


@pytest.fixture(scope="module")
def products_small():
    return load_dataset("products", scale=1 / 4096, seed=0)


@pytest.fixture(scope="module")
def papers_small():
    return load_dataset("papers100m", scale=1 / 16384, seed=0)


@pytest.fixture(scope="module")
def cfg():
    return TrainingConfig(model="gcn", minibatch_size=256,
                          fanouts=(10, 5), hidden_dim=64, seed=2)


class TestPyGBaseline:
    def test_report_fields(self, products_small, cfg):
        base = PyGMultiGPUBaseline(products_small, cfg,
                                   profile_probes=2)
        rep = base.report()
        assert rep.system == "PyG multi-GPU"
        assert rep.epoch_time_s > 0
        assert rep.iterations > 0
        assert rep.stage_breakdown

    def test_serialized_and_accel_only(self, products_small, cfg):
        base = PyGMultiGPUBaseline(products_small, cfg,
                                   profile_probes=2)
        assert not base.session.sys_cfg.prefetch
        assert not base.session.sys_cfg.hybrid
        assert base.session.split.cpu_targets == 0

    def test_hyscale_beats_baseline(self, products_small, cfg):
        """Fig. 10's primary claim on equal hardware counts."""
        base = PyGMultiGPUBaseline(products_small, cfg,
                                   profile_probes=2)
        t_base = base.simulate_epoch(iterations=40).virtual_time_s
        ours = VirtualTimeBackend(TrainingSession(
            products_small, cfg, ABLATION_PRESETS["hybrid_drm_tfp"],
            hyscale_cpu_fpga_platform(4), full_scale=True,
            profile_probes=2))
        t_ours = ours.simulate_epoch(iterations=40).virtual_time_s
        assert t_ours < t_base


class TestPaGraph:
    def test_products_fully_cached(self, products_small, cfg):
        """products features (~1 GB) fit in V100 memory: 100% hits."""
        pg = PaGraphSystem(products_small, cfg)
        assert pg.cache_fraction == 1.0
        assert pg.hit_ratio == 1.0

    def test_papers_cache_limited(self, papers_small, cfg):
        """papers100M features (~57 GB) overflow the cache: misses."""
        pg = PaGraphSystem(papers_small, cfg)
        assert pg.cache_fraction < 0.35
        assert pg.hit_ratio < 1.0
        # Degree-ordered caching beats proportional: hit > fraction.
        assert pg.hit_ratio > pg.cache_fraction

    def test_misses_increase_epoch_time(self, products_small,
                                        papers_small, cfg):
        t_hit, bh = PaGraphSystem(products_small, cfg).iteration_time()
        t_miss, bm = PaGraphSystem(papers_small, cfg).iteration_time()
        assert bm["transfer"] > bh["transfer"]

    def test_report(self, papers_small, cfg):
        rep = PaGraphSystem(papers_small, cfg).report()
        assert rep.epoch_time_s == pytest.approx(
            rep.iterations * rep.iteration_time_s)
        assert 0 <= rep.stage_breakdown["hit_ratio"] <= 1


class TestP3:
    def test_no_feature_network_term(self, papers_small):
        """P3 moves activations, never features: network cost scales
        with hidden dim, not feature dim."""
        thin = TrainingConfig(model="gcn", minibatch_size=256,
                              fanouts=(10, 5), hidden_dim=32, seed=0)
        wide = thin.with_updates(hidden_dim=256)
        _, b_thin = P3System(papers_small, thin).iteration_time()
        _, b_wide = P3System(papers_small, wide).iteration_time()
        assert b_wide["network"] > 5 * b_thin["network"]

    def test_report(self, papers_small):
        cfg32 = TrainingConfig(model="gcn", minibatch_size=256,
                               fanouts=(10, 5), hidden_dim=32, seed=0)
        rep = P3System(papers_small, cfg32).report()
        assert rep.system == "P3"
        assert rep.epoch_time_s > 0

    def test_requires_multi_node(self, papers_small, cfg):
        from repro.hw.topology import pagraph_node
        with pytest.raises(ConfigError):
            P3System(papers_small, cfg, platform=pagraph_node())


class TestDistDGL:
    def test_partition_quality_used(self, papers_small):
        cfg3 = TrainingConfig(model="sage", minibatch_size=256,
                              fanouts=(5, 4, 3), hidden_dim=64, seed=0)
        dd = DistDGLv2System(papers_small, cfg3)
        assert 0.0 < dd.partition.edge_cut_fraction < 1.0
        t, breakdown = dd.iteration_time()
        assert breakdown["halo"] > 0
        assert breakdown["edge_cut"] == dd.partition.edge_cut_fraction

    def test_more_cut_more_halo_traffic(self, papers_small):
        """Hash partitioning (worse cut) must cost more than BFS."""
        from repro.graph.partition import (hash_partition,
                                           partition_quality)
        cfg3 = TrainingConfig(model="sage", minibatch_size=256,
                              fanouts=(5, 4, 3), hidden_dim=64, seed=0)
        dd = DistDGLv2System(papers_small, cfg3)
        t_bfs, b_bfs = dd.iteration_time()
        dd.partition = partition_quality(
            papers_small.graph,
            hash_partition(papers_small.graph, 8, seed=0))
        t_hash, b_hash = dd.iteration_time()
        assert b_hash["halo"] >= b_bfs["halo"]

    def test_report(self, papers_small):
        cfg3 = TrainingConfig(model="sage", minibatch_size=256,
                              fanouts=(5, 4, 3), hidden_dim=64, seed=0)
        rep = DistDGLv2System(papers_small, cfg3).report()
        assert rep.iterations >= 1
        assert rep.epoch_time_s > 0


class TestNormalizedMetric:
    def test_table7_normalization(self, papers_small, cfg):
        rep = PaGraphSystem(papers_small, cfg).report()
        norm = rep.normalized_epoch_time(100.0)
        assert norm == pytest.approx(rep.epoch_time_s * 100.0)
        with pytest.raises(ConfigError):
            rep.normalized_epoch_time(0.0)
