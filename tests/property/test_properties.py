"""Property-based tests (hypothesis) on core data structures/invariants."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.coo import sort_edges_by_src, source_run_lengths
from repro.graph.csr import CSRGraph
from repro.nn.aggregators import SparseAggregator
from repro.nn.loss import softmax_cross_entropy
from repro.runtime.core import BatchPlan
from repro.sampling import neighbor
from repro.sampling.base import LayerBlock, MiniBatchStats
from repro.sampling.neighbor import NeighborSampler
from repro.sim.engine import PipelineSimulator

common_settings = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def edge_lists(draw, max_vertices=30, max_edges=120):
    n = draw(st.integers(2, max_vertices))
    m = draw(st.integers(0, max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return n, np.array(src, dtype=np.int64), np.array(dst,
                                                      dtype=np.int64)


@st.composite
def layer_blocks(draw, max_src=20, max_edges=60):
    num_src = draw(st.integers(1, max_src))
    num_dst = draw(st.integers(1, num_src))
    m = draw(st.integers(0, max_edges))
    src = draw(st.lists(st.integers(0, num_src - 1), min_size=m,
                        max_size=m))
    dst = draw(st.lists(st.integers(0, num_dst - 1), min_size=m,
                        max_size=m))
    return LayerBlock(np.array(src, dtype=np.int64),
                      np.array(dst, dtype=np.int64), num_src, num_dst)


# ---------------------------------------------------------------------------
# CSR invariants
# ---------------------------------------------------------------------------

class TestCSRProperties:
    @common_settings
    @given(edge_lists())
    def test_from_edges_preserves_multiset(self, data):
        n, src, dst = data
        g = CSRGraph.from_edges(src, dst, n)
        s2, d2 = g.edges()
        want = sorted(zip(src.tolist(), dst.tolist()))
        got = sorted(zip(s2.tolist(), d2.tolist()))
        assert want == got

    @common_settings
    @given(edge_lists())
    def test_degree_sum_equals_edges(self, data):
        n, src, dst = data
        g = CSRGraph.from_edges(src, dst, n)
        assert g.out_degrees.sum() == g.num_edges

    @common_settings
    @given(edge_lists())
    def test_transpose_involution(self, data):
        """Double transpose preserves the edge multiset (within-row
        ordering of parallel edges may legally differ)."""
        n, src, dst = data
        g = CSRGraph.from_edges(src, dst, n)
        tt = g.transpose().transpose()
        assert sorted(zip(*[a.tolist() for a in g.edges()])) == \
            sorted(zip(*[a.tolist() for a in tt.edges()]))

    @common_settings
    @given(edge_lists())
    def test_symmetrize_is_symmetric_and_superset(self, data):
        n, src, dst = data
        g = CSRGraph.from_edges(src, dst, n, dedup=True)
        s = g.symmetrize()
        # Every original edge survives.
        orig = set(zip(*[a.tolist() for a in g.edges()]))
        symm = set(zip(*[a.tolist() for a in s.edges()]))
        assert orig <= symm
        assert {(b, a) for a, b in symm} == symm


# ---------------------------------------------------------------------------
# COO helpers
# ---------------------------------------------------------------------------

class TestCOOProperties:
    @common_settings
    @given(edge_lists())
    def test_sort_preserves_pairs(self, data):
        n, src, dst = data
        s, d = sort_edges_by_src(src, dst)
        assert sorted(zip(src.tolist(), dst.tolist())) == \
            sorted(zip(s.tolist(), d.tolist()))
        assert (np.diff(s) >= 0).all()

    @common_settings
    @given(edge_lists())
    def test_run_lengths_partition_edges(self, data):
        n, src, dst = data
        s, _ = sort_edges_by_src(src, dst)
        runs = source_run_lengths(s)
        assert runs.sum() == s.size
        assert (runs > 0).all()


# ---------------------------------------------------------------------------
# Aggregation equivalence (sparse-matmul path vs FPGA-style scatter path)
# ---------------------------------------------------------------------------

class TestAggregationProperties:
    @common_settings
    @given(layer_blocks(), st.integers(1, 8), st.integers(0, 10**6))
    def test_two_paths_agree(self, blk, feat, seed):
        """spmm and the FPGA's edge-serial scatter-add (an ``np.add.at``
        edge sum) in float32, the training dtype. They sum in different
        orders, so they agree to the recursive-summation bound: a few
        ``eps`` per edge, relative to ``Σ|w·h|``."""
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((blk.num_src, feat)).astype(np.float32)
        w = rng.random(blk.num_edges).astype(np.float32)
        a = SparseAggregator(blk, w).forward(h)
        b = np.zeros((blk.num_dst, feat), dtype=np.float32)
        np.add.at(b, blk.dst_local, h[blk.src_local] * w[:, None])
        assert a.dtype == b.dtype == np.float32
        magnitude = SparseAggregator(blk, w.astype(np.float64)).forward(
            np.abs(h).astype(np.float64))
        tol = 2 * (blk.num_edges + 1) * np.finfo(np.float32).eps
        assert (np.abs(a - b) <= tol * magnitude).all()

    @common_settings
    @given(layer_blocks(), st.integers(1, 6), st.integers(0, 10**6))
    def test_csr_matches_scipy_coo_route(self, blk, feat, seed):
        """The directly built CSR is SciPy's COO → CSR result: the same
        arrays, so forward and backward products are bit-identical
        (duplicate edges included)."""
        rng = np.random.default_rng(seed)
        w = rng.random(blk.num_edges).astype(np.float32)
        agg = SparseAggregator(blk, w)
        coo = sp.csr_matrix((w, (blk.dst_local, blk.src_local)),
                            shape=(blk.num_dst, blk.num_src))
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(agg.matrix, name),
                                  getattr(coo, name))
        assert agg.matrix.dtype == coo.dtype
        assert agg.matrix.indices.dtype == coo.indices.dtype
        h = rng.standard_normal((blk.num_src, feat)).astype(np.float32)
        g = rng.standard_normal((blk.num_dst, feat)).astype(np.float32)
        assert np.array_equal(agg.forward(h), coo @ h)
        assert np.array_equal(agg.backward(g), coo.T.tocsr() @ g)

    @common_settings
    @given(layer_blocks(), st.integers(1, 6), st.integers(0, 10**6))
    def test_adjoint_identity(self, blk, feat, seed):
        """<S h, g> == <h, S^T g> for arbitrary blocks."""
        rng = np.random.default_rng(seed)
        agg = SparseAggregator(blk)
        h = rng.standard_normal((blk.num_src, feat))
        g = rng.standard_normal((blk.num_dst, feat))
        assert np.isclose(np.sum(agg.forward(h) * g),
                          np.sum(h * agg.backward(g)))

    @common_settings
    @given(layer_blocks(), st.integers(1, 6))
    def test_linearity(self, blk, feat):
        rng = np.random.default_rng(0)
        agg = SparseAggregator(blk)
        h1 = rng.standard_normal((blk.num_src, feat))
        h2 = rng.standard_normal((blk.num_src, feat))
        assert np.allclose(agg.forward(h1 + h2),
                           agg.forward(h1) + agg.forward(h2))


# ---------------------------------------------------------------------------
# Sampler dedup (row-sorted vs one global np.unique)
# ---------------------------------------------------------------------------

def _unique_route_capped_neighbors(indptr, indices, nodes, fanout, rng):
    """The sampler's hop with its duplicate draws coalesced by one
    global ``np.unique`` over packed ``(position, neighbor)`` keys —
    the oracle for the per-row sort. The key packs by ``|V|``, so
    distinct pairs never collide."""
    deg = indptr[nodes + 1] - indptr[nodes]
    small = deg <= fanout
    seg_parts, neigh_parts = [], []
    if small.any():
        seg_s, neigh_s = neighbor._gather_all_neighbors(
            indptr, indices, nodes[small])
        seg_parts.append(np.flatnonzero(small)[seg_s])
        neigh_parts.append(neigh_s)
    big_nodes = nodes[~small]
    if big_nodes.size:
        offs = (rng.random((big_nodes.size, fanout))
                * deg[~small].astype(np.float64)[:, None]).astype(np.int64)
        neigh_b = indices[indptr[big_nodes][:, None] + offs].ravel()
        seg_b = np.repeat(np.flatnonzero(~small), fanout)
        keys = seg_b * np.int64(indptr.size) + neigh_b
        _, first = np.unique(keys, return_index=True)
        seg_parts.append(seg_b[first])
        neigh_parts.append(neigh_b[first])
    if not seg_parts:
        return (np.zeros(0, dtype=np.int64),) * 2
    return np.concatenate(seg_parts), np.concatenate(neigh_parts)


class TestSamplerDedupProperties:
    @common_settings
    @given(edge_lists(max_vertices=25, max_edges=150),
           st.lists(st.integers(1, 6), min_size=1, max_size=3),
           st.integers(1, 12), st.integers(0, 10**6))
    def test_row_sorted_dedup_matches_unique_route(self, data, fanouts,
                                                    batch, seed):
        """Same RNG draws, same batches, array for array and dtype for
        dtype. ``edge_lists`` repeats ``(src, dst)`` pairs, so the graph
        is a multigraph: parallel edges make distinct draws of one node
        land on the same neighbor id."""
        n, src, dst = data
        graph = CSRGraph.from_edges(src, dst, n)
        targets = np.random.default_rng(seed).permutation(n)[:batch]
        twins = [NeighborSampler(graph, np.arange(n), tuple(fanouts), 4,
                                 seed=seed) for _ in range(2)]
        got = twins[0].sample(targets)
        with mock.patch.object(neighbor, "_sample_capped_neighbors",
                               _unique_route_capped_neighbors):
            want = twins[1].sample(targets)
        for x, y in zip(got.node_ids, want.node_ids, strict=True):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        for p, q in zip(got.blocks, want.blocks, strict=True):
            assert (p.num_src, p.num_dst) == (q.num_src, q.num_dst)
            for x, y in ((p.src_local, q.src_local),
                         (p.dst_local, q.dst_local)):
                assert x.dtype == y.dtype and np.array_equal(x, y)

    def test_parallel_edges_are_drawn_and_coalesced(self):
        """A hub whose every edge goes to one of two neighbors, each
        several times over: the capped hop keeps each neighbor once."""
        graph = CSRGraph.from_edges(np.zeros(12, dtype=np.int64),
                                    np.array([1, 2] * 6), 3)
        seg, neigh = neighbor._sample_capped_neighbors(
            graph.indptr, graph.indices, np.array([0]), 5,
            np.random.default_rng(0))
        assert seg.tolist() == [0, 0] and neigh.tolist() == [1, 2]

    def test_neighbor_ids_past_the_edge_count_keep_position_order(self):
        """Neighbor ids may exceed ``|E|`` on a sparse graph; pairs
        still come out in node-position order, then neighbor order (a
        ``(position, neighbor)`` key packed by ``|E| + 1`` would put
        position 1's pair first here)."""
        graph = CSRGraph.from_edges(np.array([0, 0, 1, 1]),
                                    np.array([7, 7, 0, 0]), 8)
        seg, neigh = neighbor._sample_capped_neighbors(
            graph.indptr, graph.indices, np.array([0, 1]), 1,
            np.random.default_rng(0))
        assert seg.tolist() == [0, 1] and neigh.tolist() == [7, 0]


# ---------------------------------------------------------------------------
# Loss properties
# ---------------------------------------------------------------------------

class TestLossProperties:
    @common_settings
    @given(st.integers(1, 16), st.integers(2, 10),
           st.integers(0, 10**6))
    def test_loss_nonnegative_and_grad_mean_zero(self, batch, classes,
                                                 seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((batch, classes)) * 5
        labels = rng.integers(0, classes, batch)
        loss, dl = softmax_cross_entropy(logits, labels)
        assert loss >= 0
        assert np.allclose(dl.sum(axis=1), 0, atol=1e-12)
        # Gradient row norms are bounded by 2/batch for CE-softmax.
        assert (np.abs(dl) <= 1.0 / batch + 1e-12).all()

    @common_settings
    @given(st.integers(1, 16), st.integers(2, 10),
           st.floats(-3, 3), st.integers(0, 10**6))
    def test_shift_invariance(self, batch, classes, shift, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((batch, classes))
        labels = rng.integers(0, classes, batch)
        l1, _ = softmax_cross_entropy(logits, labels)
        l2, _ = softmax_cross_entropy(logits + shift, labels)
        assert np.isclose(l1, l2, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# Pipeline schedule invariants
# ---------------------------------------------------------------------------

def _stage_spans(sim, rows):
    """Per stage, in pipeline order: ``(start, finish)`` arrays indexed
    by iteration, read off the simulated timeline's spans."""
    spans = sim.run(rows).spans
    out = []
    for name in sim.stage_names:
        own = sorted((s for s in spans if s.stage == name),
                     key=lambda s: s.iteration)
        out.append((np.array([s.start for s in own]),
                    np.array([s.end for s in own])))
    return out


class TestPipelineProperties:
    @common_settings
    @given(st.lists(st.lists(st.floats(0.0, 5.0), min_size=3,
                             max_size=3),
                    min_size=1, max_size=12),
           st.integers(0, 4))
    def test_schedule_respects_all_constraints(self, rows, depth):
        sim = PipelineSimulator(["a", "b", "c"], prefetch_depth=depth)
        scheds = _stage_spans(sim, rows)
        for (_, prev_finish), (next_start, _) in zip(scheds, scheds[1:]):
            assert (next_start >= prev_finish - 1e-9).all()
        for start, finish in scheds:
            if len(rows) > 1:
                assert (start[1:] >= finish[:-1] - 1e-9).all()

    @common_settings
    @given(st.lists(st.lists(st.floats(0.01, 5.0), min_size=3,
                             max_size=3),
                    min_size=1, max_size=10))
    def test_deeper_prefetch_never_slower(self, rows):
        m = [PipelineSimulator(["a", "b", "c"], d).makespan(rows)
             for d in (0, 1, 2, 4)]
        for earlier, later in zip(m, m[1:]):
            assert later <= earlier + 1e-9

    @common_settings
    @given(st.lists(st.lists(st.floats(0.01, 5.0), min_size=2,
                             max_size=2),
                    min_size=1, max_size=10))
    def test_makespan_bounds(self, rows):
        """max-stage lower bound; sum-of-everything upper bound."""
        sim = PipelineSimulator(["a", "b"], 2)
        mk = sim.makespan(rows)
        lower = max(sum(r[k] for r in rows) for k in range(2))
        upper = sum(sum(r) for r in rows)
        assert lower - 1e-9 <= mk <= upper + 1e-9


# ---------------------------------------------------------------------------
# BatchPlan invariants (the quota / permutation-cursor logic every
# execution backend shares)
# ---------------------------------------------------------------------------

@st.composite
def plan_inputs(draw, max_train=200, max_trainers=4, max_quota=50):
    """(train_ids, quotas, seed): sparse distinct ids, >=1 positive quota."""
    n = draw(st.integers(1, max_train))
    start = draw(st.integers(0, 1000))
    stride = draw(st.integers(1, 5))
    train_ids = start + stride * np.arange(n, dtype=np.int64)
    k = draw(st.integers(1, max_trainers))
    quotas = draw(st.lists(st.integers(0, max_quota), min_size=k,
                           max_size=k).filter(lambda q: sum(q) > 0))
    seed = draw(st.integers(0, 10**6))
    return train_ids, quotas, seed


def _materialize_epoch(train_ids, quotas, seed):
    plan = BatchPlan(train_ids, lambda: quotas,
                     np.random.default_rng(seed))
    return list(plan.start_epoch())


class TestBatchPlanProperties:
    @common_settings
    @given(plan_inputs())
    def test_epoch_is_exact_permutation_of_train_set(self, data):
        """Concatenating every assignment reproduces the train set:
        every id exactly once — no repeats, no gaps."""
        train_ids, quotas, seed = data
        chunks = [a for it in _materialize_epoch(train_ids, quotas, seed)
                  for a in it.assignments if a is not None]
        flat = np.concatenate(chunks)
        assert flat.size == train_ids.size
        np.testing.assert_array_equal(np.sort(flat), train_ids)
        assert np.unique(flat).size == flat.size

    @common_settings
    @given(plan_inputs())
    def test_assignments_respect_per_trainer_quotas(self, data):
        """Each trainer never receives more than its quota, and every
        non-tail iteration hands out exactly the quota sum."""
        train_ids, quotas, seed = data
        epoch = _materialize_epoch(train_ids, quotas, seed)
        total = sum(quotas)
        for it in epoch:
            assert len(it.assignments) == len(quotas)
            for size, want in zip(it.batch_sizes, quotas):
                assert size <= want
            assert it.total_targets <= total
        for it in epoch[:-1]:
            assert it.total_targets == total

    @common_settings
    @given(plan_inputs())
    def test_iteration_count_matches_quota_arithmetic(self, data):
        train_ids, quotas, seed = data
        epoch = _materialize_epoch(train_ids, quotas, seed)
        assert len(epoch) == -(-train_ids.size // sum(quotas))
        assert [it.index for it in epoch] == list(range(len(epoch)))

    @common_settings
    @given(plan_inputs())
    def test_deterministic_under_fixed_seed(self, data):
        """Same seed → bit-identical assignments; this is the
        cross-backend reproducibility contract."""
        train_ids, quotas, seed = data
        a = _materialize_epoch(train_ids, quotas, seed)
        b = _materialize_epoch(train_ids, quotas, seed)
        assert len(a) == len(b)
        for ia, ib in zip(a, b):
            assert ia.batch_sizes == ib.batch_sizes
            for xa, xb in zip(ia.assignments, ib.assignments):
                if xa is None:
                    assert xb is None
                else:
                    np.testing.assert_array_equal(xa, xb)

    @common_settings
    @given(plan_inputs(), st.integers(1, 30))
    def test_iterate_yields_exact_count_rolling_epochs(self, data,
                                                       n_iters):
        """iterate(N) — the shared epoch-rolling loop of every live
        backend — yields exactly N sequentially-numbered iterations
        and starts ceil(N / per_epoch) epoch permutations."""
        train_ids, quotas, seed = data
        plan = BatchPlan(train_ids, lambda: quotas,
                         np.random.default_rng(seed))
        out = list(plan.iterate(n_iters))
        assert [i for i, _ in out] == list(range(n_iters))
        per_epoch = -(-train_ids.size // sum(quotas))
        assert plan.epochs_started == -(-n_iters // per_epoch)

    @common_settings
    @given(plan_inputs(), st.integers(1, 4))
    def test_epochs_draw_independent_permutations(self, data, epochs):
        """Each epoch re-covers the train set exactly, advancing the
        shared RNG stream (epochs_started counts them)."""
        train_ids, quotas, seed = data
        plan = BatchPlan(train_ids, lambda: quotas,
                         np.random.default_rng(seed))
        for _ in range(epochs):
            flat = np.concatenate(
                [a for it in plan.start_epoch()
                 for a in it.assignments if a is not None])
            np.testing.assert_array_equal(np.sort(flat), train_ids)
        assert plan.epochs_started == epochs


# ---------------------------------------------------------------------------
# MiniBatchStats scaling
# ---------------------------------------------------------------------------

class TestStatsProperties:
    @common_settings
    @given(st.integers(1, 10**5), st.integers(1, 10**5),
           st.integers(1, 512),
           st.floats(0.01, 10.0))
    def test_scaled_stays_positive_and_monotone(self, v, e, f, factor):
        st_ = MiniBatchStats((v, max(1, v // 2)), (e,), f)
        scaled = st_.scaled(factor)
        assert min(scaled.num_nodes_per_layer) >= 1
        assert min(scaled.num_edges_per_layer) >= 1
        if factor >= 1.0:
            assert scaled.total_edges >= st_.total_edges * 0.9
