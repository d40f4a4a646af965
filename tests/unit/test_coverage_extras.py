"""Additional edge-case coverage across modules."""

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    GraphError,
    SamplingError,
    SimulationError,
)


class TestBaselineCommon:
    def test_degree_ordered_hit_ratio_bounds(self, tiny_ds):
        from repro.baselines.common import degree_ordered_hit_ratio
        assert degree_ordered_hit_ratio(tiny_ds, 0.0) == 0.0
        assert degree_ordered_hit_ratio(tiny_ds, 1.0) == 1.0
        mid = degree_ordered_hit_ratio(tiny_ds, 0.2)
        # Degree-ordering always beats proportional caching.
        assert mid > 0.2

    def test_hit_ratio_monotone(self, tiny_ds):
        from repro.baselines.common import degree_ordered_hit_ratio
        fracs = [0.1, 0.3, 0.6, 0.9]
        vals = [degree_ordered_hit_ratio(tiny_ds, f) for f in fracs]
        assert vals == sorted(vals)

    def test_iterations_per_epoch(self, tiny_ds):
        from repro.baselines.common import iterations_per_epoch
        n = iterations_per_epoch(tiny_ds, 64)
        assert n == -(-tiny_ds.spec.train_count // 64)
        with pytest.raises(ConfigError):
            iterations_per_epoch(tiny_ds, 0)


class TestTraceExtras:
    def test_gantt_row_cap(self):
        from repro.sim.trace import Span, Timeline, render_gantt
        tl = Timeline([Span("s", i, i * 1.0, i + 0.5)
                       for i in range(100)])
        text = render_gantt(tl, max_rows=5)
        assert "more spans" in text

    def test_zero_length_timeline(self):
        from repro.sim.trace import Span, Timeline, render_gantt
        tl = Timeline([Span("s", 0, 0.0, 0.0)])
        assert "zero-length" in render_gantt(tl)


class TestSamplerExtras:
    def test_neighbor_sampler_single_hop(self, tiny_ds):
        from repro.sampling import NeighborSampler
        s = NeighborSampler(tiny_ds.graph, tiny_ds.train_ids, (3,),
                            tiny_ds.spec.feature_dim, seed=0)
        mb = s.sample(tiny_ds.train_ids[:4])
        assert mb.num_layers == 1
        mb.validate()

    def test_saint_edge_sampler_empty_graph_rejected(self):
        from repro.graph.csr import CSRGraph
        from repro.sampling import SaintEdgeSampler
        g = CSRGraph.empty(16)
        s = SaintEdgeSampler(g, np.arange(16), 2, 4, seed=0)
        with pytest.raises(SamplingError):
            s._draw(8)

    def test_rw_sampler_handles_dead_ends(self):
        from repro.graph.csr import CSRGraph
        from repro.sampling import SaintRWSampler
        # Star graph: center 0 -> leaves, leaves have no out-edges.
        src = np.zeros(5, dtype=np.int64)
        dst = np.arange(1, 6)
        g = CSRGraph.from_edges(src, dst, 6)
        s = SaintRWSampler(g, np.arange(6), 2, 4, seed=1,
                           walk_length=4)
        mb = s.sample(s._draw(6))
        mb.validate()


class TestDRMExtras:
    def test_metric_lower_is_better(self):
        from repro.config import SystemConfig
        from repro.perfmodel.model import StageTimes, WorkloadSplit
        from repro.runtime.drm import DRMEngine
        drm = DRMEngine(SystemConfig(), 256, hybrid=True)
        split = WorkloadSplit(cpu_targets=128,
                              accel_targets=(256, 256))
        fast = StageTimes(0.1, 0.0, 0.1, 0.1, 0.1, 0.1, 0.01)
        slow = StageTimes(0.5, 0.0, 0.5, 0.5, 0.5, 0.5, 0.01)
        assert drm._metric(split, fast) < drm._metric(split, slow)

    def test_cooldown_blocks_repeat_case(self):
        from repro.config import SystemConfig
        from repro.perfmodel.model import StageTimes, WorkloadSplit
        from repro.runtime.drm import DRMEngine
        drm = DRMEngine(SystemConfig(), 256, hybrid=True,
                        revert_tolerance=0.0)
        split = WorkloadSplit(cpu_targets=128,
                              accel_targets=(256, 256))
        bottleneck = dict(t_sample_cpu=0.1, t_sample_accel=0.0,
                          t_load=0.1, t_transfer=5.0, t_train_cpu=0.1,
                          t_train_accel=0.1, t_sync=0.01)
        s1 = drm.adjust(split, StageTimes(**bottleneck), 0)
        assert s1 is not split
        # Regression -> revert + cooldown for this case.
        worse = dict(bottleneck)
        worse["t_transfer"] = 50.0
        s2 = drm.adjust(s1, StageTimes(**worse), 1)
        assert drm.decisions[-1].action == "revert"
        # While cooling down, the same bottleneck produces no action.
        s3 = drm.adjust(s2, StageTimes(**bottleneck), 2)
        assert drm.decisions[-1].action == "none"
        assert s3 is s2


class TestMappingExtras:
    def test_mapping_result_fields(self, tiny_ds, fpga_platform):
        from repro.config import layer_dims
        from repro.perfmodel.mapping import initial_mapping
        from repro.perfmodel.model import PerformanceModel
        from repro.perfmodel.sampling_profile import SamplingProfile
        from repro.sampling.neighbor import NeighborSampler
        sampler = NeighborSampler(tiny_ds.graph, tiny_ds.train_ids,
                                  (4, 3), tiny_ds.spec.feature_dim,
                                  seed=0)
        profile = SamplingProfile.measure(sampler, 32, num_probes=2)
        dims = layer_dims(tiny_ds.spec.feature_dim, 16,
                          tiny_ds.spec.num_classes, 2)
        pm = PerformanceModel(fpga_platform, dims, "sage", profile)
        res = initial_mapping(pm, 32, coarse=True)
        assert res.split.total_targets >= 64
        assert res.candidates_evaluated >= 3


class TestGraphExtras:
    def test_empty_indices_transpose(self):
        from repro.graph.csr import CSRGraph
        g = CSRGraph.empty(4)
        t = g.transpose()
        assert t.num_edges == 0

    def test_dataset_alias_case_insensitive(self):
        from repro.graph.datasets import load_dataset
        ds = load_dataset("OGBN-PRODUCTS", scale=1 / 4096, seed=0)
        assert ds.name == "ogbn-products"
