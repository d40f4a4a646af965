"""Unit tests for the sampling package."""

import importlib.util
import pathlib
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.runtime import TrainingSession, build_backend
from repro.runtime.backends import pipelined
from repro.sampling.base import (
    LayerBlock,
    MiniBatch,
    MiniBatchStats,
    relabel_hop,
)
from repro.sampling.full import FullBatchSampler
from repro.sampling.neighbor import NeighborSampler, _gather_all_neighbors
from repro.sampling.saint import (
    SaintEdgeSampler,
    SaintNodeSampler,
    SaintRWSampler,
    induced_block,
)


def _load_bench():
    # The sort-relabel oracle is shared with the gated
    # ``sample_neighbor`` bench row, not copied.
    path = pathlib.Path(__file__).parents[2] / "benchmarks" / \
        "bench_kernels_micro.py"
    spec = importlib.util.spec_from_file_location(
        "bench_kernels_micro", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_bench = _load_bench()
union_preserving_order = _bench.union_preserving_order
local_index_of = _bench.local_index_of
SortRelabelSampler = _bench.SortRelabelSampler

property_settings = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture])


def sorted_induced_block(graph, nodes):
    """``induced_block`` as it was before the position map: a stable
    sort of ``nodes`` and a binary search per neighbor."""
    order = np.argsort(nodes, kind="stable")
    sorted_nodes = nodes[order]
    seg, neigh = _gather_all_neighbors(graph.indptr, graph.indices, nodes)
    pos = np.clip(np.searchsorted(sorted_nodes, neigh), 0,
                  sorted_nodes.size - 1)
    member = sorted_nodes[pos] == neigh
    return seg[member], order[pos[member]]


def assert_batches_identical(a: MiniBatch, b: MiniBatch) -> None:
    """Array for array, dtype included."""
    assert len(a.node_ids) == len(b.node_ids)
    for x, y in zip(a.node_ids, b.node_ids):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    for p, q in zip(a.blocks, b.blocks, strict=True):
        assert (p.num_src, p.num_dst) == (q.num_src, q.num_dst)
        for x, y in ((p.src_local, q.src_local),
                     (p.dst_local, q.dst_local)):
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)


@st.composite
def graphs(draw, max_vertices=40, max_edges=200):
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    return CSRGraph.from_edges(np.array(draw(ends), dtype=np.int64),
                               np.array(draw(ends), dtype=np.int64), n)


@st.composite
def frontier_and_extra(draw):
    """A position map's universe ``|V|``, a duplicate-free frontier and
    an arbitrary extra id array (repeats, empty, ids at 0 and |V|-1)."""
    n = draw(st.integers(1, 50))
    ids = st.integers(0, n - 1)
    frontier = draw(st.lists(ids, min_size=1, max_size=n, unique=True))
    extra = draw(st.lists(st.one_of(ids, st.sampled_from([0, n - 1])),
                          max_size=80))
    return (n, np.array(frontier, dtype=np.int64),
            np.array(extra, dtype=np.int64))


class TestHelpers:
    def test_union_preserving_order(self):
        base = np.array([5, 2, 9])
        extra = np.array([2, 7, 5, 1])
        out = union_preserving_order(base, extra)
        assert list(out[:3]) == [5, 2, 9]
        assert set(out) == {5, 2, 9, 7, 1}

    def test_union_empty_base(self):
        out = union_preserving_order(np.array([], dtype=np.int64),
                                     np.array([3, 1, 3]))
        assert list(out) == [1, 3]

    def test_local_index_of(self):
        universe = np.array([10, 3, 7])
        idx = local_index_of(np.array([7, 10]), universe)
        assert list(idx) == [2, 0]

    def test_local_index_missing_raises(self):
        with pytest.raises(SamplingError):
            local_index_of(np.array([99]), np.array([1, 2]))


class TestPositionMapRelabel:
    """The position-map relabel against the sort-relabel oracle."""

    def test_numpy_last_write_wins_on_repeated_fancy_index(self):
        # relabel_hop's reverse scatter relies on it; pinned on a short
        # index and on one long enough for numpy's buffered path.
        a = np.full(4, -1, dtype=np.int64)
        idx = np.array([2, 0, 2, 2, 0, 3])
        a[idx[::-1]] = np.arange(idx.size)[::-1]
        assert a.tolist() == [1, -1, 0, 5]
        idx = np.random.default_rng(0).integers(0, 1000, 100_000)
        a = np.full(1000, -1, dtype=np.int64)
        a[idx] = np.arange(idx.size)
        last = {int(v): i for i, v in enumerate(idx)}
        assert all(a[v] == i for v, i in last.items())

    @property_settings
    @given(frontier_and_extra())
    def test_relabel_hop_equals_sort_oracle(self, case):
        n, frontier, extra = case
        pos = np.full(n, -1, dtype=np.int64)
        pos[frontier] = np.arange(frontier.size)
        layer, local = relabel_hop(pos, frontier, extra)
        want_layer = union_preserving_order(frontier, extra)
        want_local = local_index_of(extra, want_layer)
        for got, want in ((layer, want_layer), (local, want_local)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        # The map now holds exactly the new layer's positions.
        expect = np.full(n, -1, dtype=np.int64)
        expect[layer] = np.arange(layer.size)
        np.testing.assert_array_equal(pos, expect)

    @property_settings
    @given(graphs(), st.lists(st.integers(1, 6), min_size=1, max_size=3),
           st.integers(0, 2**32 - 1), st.data())
    def test_sampler_equals_sort_relabel_twin(self, graph, fanouts, seed,
                                              data):
        n = graph.num_vertices
        ids = np.arange(n)
        fast = NeighborSampler(graph, ids, tuple(fanouts), 4, seed=seed)
        ref = SortRelabelSampler(graph, ids, tuple(fanouts), 4, seed=seed)
        for _ in range(3):
            targets = np.array(data.draw(st.lists(
                st.integers(0, n - 1), min_size=1, max_size=n,
                unique=True)), dtype=np.int64)
            assert_batches_identical(fast.sample(targets),
                                     ref.sample(targets))
        assert (fast._pos == -1).all()

    def test_epoch_equals_sort_relabel_twin(self, medium_graph):
        args = (medium_graph, np.arange(medium_graph.num_vertices),
                (10, 5), 8)
        fast = NeighborSampler(*args, seed=4)
        ref = SortRelabelSampler(*args, seed=4)
        for a, b in zip(fast.epoch_batches(512, seed=2),
                        ref.epoch_batches(512, seed=2), strict=True):
            assert_batches_identical(a, b)

    @property_settings
    @given(graphs(), st.data())
    def test_induced_block_equals_sorted_twin(self, graph, data):
        n = graph.num_vertices
        nodes = np.array(data.draw(st.lists(
            st.integers(0, n - 1), min_size=1, max_size=n, unique=True)),
            dtype=np.int64)
        pos = np.full(n, -1, dtype=np.int64)
        got = induced_block(graph, nodes, pos)
        for x, y in zip(got, sorted_induced_block(graph, nodes),
                        strict=True):
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)
        assert (pos == -1).all()


#: Bad target ids on the 400-vertex fixture. Before the front door,
#: [3, -397] was accepted (-397 aliases vertex 3), [-1] and [400] leaked
#: a bare ValueError / IndexError and floats were truncated.
BAD_TARGETS = {
    "negative-alias": [3, -397],
    "negative": [-1],
    "past-end": [400],
    "float": [0.5, 1.7],
    "two-dim": [[1, 2]],
}


def _samplers(ds, seed=5):
    fdim = ds.spec.feature_dim
    return {
        "neighbor": NeighborSampler(ds.graph, ds.train_ids, (4, 3), fdim,
                                    seed=seed),
        "saint": SaintNodeSampler(ds.graph, ds.train_ids, 2, fdim,
                                  seed=seed),
    }


class TestSamplerFrontDoor:
    @pytest.mark.parametrize("family", ["neighbor", "saint"])
    @pytest.mark.parametrize("bad", list(BAD_TARGETS.values()),
                             ids=list(BAD_TARGETS))
    def test_bad_target_ids_raise_typed_error(self, tiny_ds, family, bad):
        assert tiny_ds.graph.num_vertices == 400
        sampler = _samplers(tiny_ds)[family]
        with pytest.raises(SamplingError):
            sampler.sample(np.array(bad))
        assert (sampler._pos == -1).all()

    def test_any_integer_dtype_accepted(self, tiny_ds):
        sampler = _samplers(tiny_ds)["neighbor"]
        twin = _samplers(tiny_ds)["neighbor"]
        targets = tiny_ds.train_ids[:8]
        a = sampler.sample(targets.astype(np.uint16))
        assert_batches_identical(a, twin.sample(targets))
        assert a.targets.dtype == np.int64


class TestPositionMapExceptionSafety:
    """A sample that raises leaves the map all -1, and the sampler's
    next batch is the one a twin that never saw the call draws."""

    @pytest.mark.parametrize("bad", [[1, 1], [7, 3, 7], [3, -397], [400]],
                             ids=["dup", "dup-3", "alias", "past-end"])
    def test_rejected_call_leaves_map_clean(self, tiny_ds, bad):
        sampler, twin = (_samplers(tiny_ds)["neighbor"] for _ in range(2))
        with pytest.raises(SamplingError):
            sampler.sample(np.array(bad))
        assert (sampler._pos == -1).all()
        targets = tiny_ds.train_ids[:16]
        assert_batches_identical(sampler.sample(targets),
                                 twin.sample(targets))

    @pytest.mark.parametrize("seam", ["_sample_capped_neighbors",
                                      "relabel_hop"])
    def test_hop_raising_midway_leaves_map_clean(self, tiny_ds,
                                                 monkeypatch, seam):
        # The second hop fails after the first wrote its positions; on
        # the relabel seam it fails after the hop's own writes too.
        import repro.sampling.neighbor as neighbor
        real, calls = getattr(neighbor, seam), []

        def flaky(*args):
            calls.append(seam)
            out = real(*args)
            if len(calls) == 2:
                raise RuntimeError("injected")
            return out

        sampler, twin = (_samplers(tiny_ds)["neighbor"] for _ in range(2))
        monkeypatch.setattr(neighbor, seam, flaky)
        with pytest.raises(RuntimeError, match="injected"):
            sampler.sample(tiny_ds.train_ids[:16])
        monkeypatch.undo()
        assert (sampler._pos == -1).all()
        # The failed call advanced the stream; realign, then compare.
        sampler._rng = np.random.default_rng(9)
        twin._rng = np.random.default_rng(9)
        targets = tiny_ds.train_ids[16:48]
        assert_batches_identical(sampler.sample(targets),
                                 twin.sample(targets))


class TestPositionMapUnderThreads:
    def test_every_in_process_epoch_samples_from_one_thread(
            self, tiny_ds, small_cfg, monkeypatch):
        """The sampler's RNG stream and position map are unlocked, so
        one thread must draw a session's stream. Three trainers train
        side by side on three lanes, and every ``sampler.sample`` of a
        ``threaded`` epoch, and of a ``pipelined`` one, still runs on
        one thread."""
        monkeypatch.setattr(pipelined, "usable_cores", lambda: 3)
        for name in ("threaded", "pipelined"):
            session = TrainingSession(tiny_ds, small_cfg,
                                      SystemConfig(drm=False),
                                      num_trainers=3)
            callers, sample = [], session.sampler.sample

            def spy(targets, sample=sample, callers=callers):
                callers.append(threading.current_thread())
                return sample(targets)

            monkeypatch.setattr(session.sampler, "sample", spy)
            rep = build_backend(name, session, timeout_s=30).run_epoch()
            assert len(callers) >= rep.iterations, name
            assert len(set(callers)) == 1, \
                (name, sorted({t.name for t in callers}))


class TestLayerBlock:
    def test_valid_block(self):
        b = LayerBlock(np.array([0, 1]), np.array([0, 0]), 2, 1)
        assert b.num_edges == 2

    def test_out_of_range(self):
        with pytest.raises(SamplingError):
            LayerBlock(np.array([2]), np.array([0]), 2, 1)
        with pytest.raises(SamplingError):
            LayerBlock(np.array([0]), np.array([1]), 2, 1)

    def test_dst_exceeds_src(self):
        with pytest.raises(SamplingError):
            LayerBlock(np.array([0]), np.array([0]), 1, 2)


class TestMiniBatchStats:
    def test_properties(self):
        st = MiniBatchStats((100, 40, 10), (300, 60), 32)
        assert st.num_layers == 2
        assert st.num_input_nodes == 100
        assert st.num_targets == 10
        assert st.total_edges == 360
        assert st.input_feature_bytes == 100 * 32 * 4

    def test_scaled(self):
        st = MiniBatchStats((100, 10), (200,), 8)
        s2 = st.scaled(0.5)
        assert s2.num_nodes_per_layer == (50, 5)
        assert s2.num_edges_per_layer == (100,)
        with pytest.raises(SamplingError):
            st.scaled(0.0)

    def test_scaled_never_zero(self):
        st = MiniBatchStats((3, 1), (2,), 8)
        s2 = st.scaled(0.01)
        assert min(s2.num_nodes_per_layer) >= 1


class TestNeighborSampler:
    def test_batch_structure(self, tiny_ds, tiny_sampler):
        mb = tiny_sampler.sample(tiny_ds.train_ids[:16])
        mb.validate()
        assert mb.num_layers == 2
        assert mb.targets.size == 16
        # Prefix alignment: layer node lists nest.
        for l in range(mb.num_layers):
            nxt = mb.node_ids[l + 1]
            assert np.array_equal(mb.node_ids[l][:nxt.size], nxt)

    def test_fanout_respected(self, medium_graph):
        s = NeighborSampler(medium_graph,
                            np.arange(medium_graph.num_vertices),
                            (5,), 8, seed=0)
        mb = s.sample(np.arange(50))
        st = mb.stats()
        # Each target contributes at most fanout edges.
        assert st.num_edges_per_layer[0] <= 50 * 5
        indeg = np.bincount(mb.blocks[0].dst_local, minlength=50)
        assert indeg.max() <= 5

    def test_edges_exist_in_graph(self, medium_graph):
        s = NeighborSampler(medium_graph,
                            np.arange(medium_graph.num_vertices),
                            (6, 4), 8, seed=1)
        mb = s.sample(np.array([0, 5, 10]))
        for l, blk in enumerate(mb.blocks):
            src_g = mb.node_ids[l][blk.src_local]
            dst_g = mb.node_ids[l + 1][blk.dst_local]
            for u, v in zip(src_g[:200], dst_g[:200]):
                # Sampled edge (u -> v) means u ∈ neighbors(v).
                assert u in medium_graph.neighbors(int(v))

    def test_no_duplicate_edges_per_dst(self, medium_graph):
        s = NeighborSampler(medium_graph,
                            np.arange(medium_graph.num_vertices),
                            (8,), 8, seed=2)
        mb = s.sample(np.arange(30))
        blk = mb.blocks[0]
        pairs = set(zip(blk.src_local.tolist(), blk.dst_local.tolist()))
        assert len(pairs) == blk.num_edges

    def test_low_degree_vertex_gets_all_neighbors(self, line_graph):
        s = NeighborSampler(line_graph, np.arange(4), (10,), 4, seed=0)
        mb = s.sample(np.array([0]))
        # Vertex 0 has exactly one neighbor (1) — must appear exactly once.
        assert mb.stats().num_edges_per_layer[0] == 1

    def test_deterministic_given_seed(self, medium_graph):
        def batch(seed):
            s = NeighborSampler(medium_graph,
                                np.arange(medium_graph.num_vertices),
                                (5, 5), 8, seed=seed)
            return s.sample(np.arange(20))
        a, b = batch(3), batch(3)
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.node_ids, b.node_ids))

    def test_epoch_covers_train_set(self, tiny_ds, tiny_sampler):
        seen = []
        for mb in tiny_sampler.epoch_batches(32, seed=1):
            seen.append(mb.targets)
        seen = np.sort(np.concatenate(seen))
        assert np.array_equal(seen, np.sort(tiny_ds.train_ids))

    def test_rejects_duplicates_and_empty(self, tiny_sampler):
        with pytest.raises(SamplingError):
            tiny_sampler.sample(np.array([1, 1]))
        with pytest.raises(SamplingError):
            tiny_sampler.sample(np.array([], dtype=np.int64))

    def test_rejects_bad_constructor_args(self, medium_graph):
        ids = np.arange(10)
        with pytest.raises(SamplingError):
            NeighborSampler(medium_graph, ids, (), 8)
        with pytest.raises(SamplingError):
            NeighborSampler(medium_graph, ids, (0,), 8)
        with pytest.raises(SamplingError):
            NeighborSampler(medium_graph, np.array([], dtype=np.int64),
                            (5,), 8)
        with pytest.raises(SamplingError):
            NeighborSampler(medium_graph,
                            np.array([medium_graph.num_vertices]),
                            (5,), 8)


class TestSaint:
    def test_induced_block_correct(self, line_graph):
        nodes = np.array([0, 1, 2])
        src, dst = induced_block(line_graph, nodes,
                                 np.full(4, -1, dtype=np.int64))
        edges = {(nodes[s], nodes[d]) for s, d in zip(src, dst)}
        assert edges == {(0, 1), (1, 2), (1, 0), (2, 1)}

    def test_node_sampler(self, tiny_ds):
        s = SaintNodeSampler(tiny_ds.graph, tiny_ds.train_ids, 2,
                             tiny_ds.spec.feature_dim, seed=0)
        mb = next(iter(s.epoch_batches(64)))
        mb.validate()
        assert mb.node_ids[0].size <= 64
        # Subgraph batches use the same node set at every layer.
        assert np.array_equal(mb.node_ids[0], mb.node_ids[-1])

    def test_edge_sampler(self, tiny_ds):
        s = SaintEdgeSampler(tiny_ds.graph, tiny_ds.train_ids, 2,
                             tiny_ds.spec.feature_dim, seed=1)
        mb = next(iter(s.epoch_batches(64)))
        mb.validate()
        assert mb.stats().num_edges_per_layer[0] > 0

    def test_rw_sampler(self, tiny_ds):
        s = SaintRWSampler(tiny_ds.graph, tiny_ds.train_ids, 2,
                           tiny_ds.spec.feature_dim, seed=2,
                           walk_length=3)
        mb = next(iter(s.epoch_batches(64)))
        mb.validate()

    def test_rw_invalid_walk(self, tiny_ds):
        with pytest.raises(SamplingError):
            SaintRWSampler(tiny_ds.graph, tiny_ds.train_ids, 2,
                           tiny_ds.spec.feature_dim, walk_length=0)

    def test_epoch_batch_count(self, tiny_ds):
        s = SaintNodeSampler(tiny_ds.graph, tiny_ds.train_ids, 2,
                             tiny_ds.spec.feature_dim, seed=0)
        n = sum(1 for _ in s.epoch_batches(50))
        assert n == -(-tiny_ds.train_ids.size // 50)


class TestFullBatch:
    def test_full_batch(self, tiny_ds):
        s = FullBatchSampler(tiny_ds.graph, tiny_ds.train_ids, 2,
                             tiny_ds.spec.feature_dim)
        mb = s.sample()
        mb.validate()
        assert mb.node_ids[0].size == tiny_ds.graph.num_vertices
        assert mb.stats().num_edges_per_layer[0] == \
            tiny_ds.graph.num_edges
        assert s.target_mask.sum() == tiny_ds.train_ids.size

    def test_epoch_is_single_batch(self, tiny_ds):
        s = FullBatchSampler(tiny_ds.graph, tiny_ds.train_ids, 2,
                             tiny_ds.spec.feature_dim)
        assert len(list(s.epoch_batches(10))) == 1
