"""Unit tests for the nn package (layers, models, loss, optim)."""

import importlib.util
import pathlib
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from repro.config import TrainingConfig, layer_dims
from repro.errors import ConfigError, ShapeError
from repro.nn.activations import relu, relu_grad
from repro.nn.aggregators import (
    SparseAggregator,
    add_self_edges,
    gcn_edge_weights,
    mean_edge_weights,
)
from repro.nn.gradcheck import check_model_gradients, numeric_gradient
from repro.nn.init import xavier_uniform, zeros_init
from repro.nn.layers import GCNLayer, LayerCache, SAGELayer
from repro.nn.linear import Linear
from repro.nn.loss import accuracy, softmax_cross_entropy
from repro.nn.models import GNNModel, build_model, model_size_bytes
from repro.nn.optim import SGD, Adam
from repro.runtime import TrainingSession, VirtualTimeBackend
from repro.runtime.trainer import TrainerNode
from repro.sampling.base import LayerBlock
from repro.sampling.neighbor import NeighborSampler
from repro.serving import ServingConfig, ServingSession, VirtualClock


def _load_bench():
    # The full-chain reference is shared with the gated
    # ``train_backward_sage`` bench row, not copied.
    path = pathlib.Path(__file__).parents[2] / "benchmarks" / \
        "bench_kernels_micro.py"
    spec = importlib.util.spec_from_file_location(
        "bench_kernels_micro", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


full_chain_step = _load_bench().full_chain_step


def _rng():
    return np.random.default_rng(0)


def _block():
    # 3 sources, 2 destinations, 4 edges.
    return LayerBlock(np.array([0, 1, 2, 2]), np.array([0, 0, 1, 0]),
                      3, 2)


class TestActivations:
    def test_relu(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert list(relu(x)) == [0.0, 0.0, 2.0]

    def test_relu_grad_zero_at_kink(self):
        x = np.array([-1.0, 0.0, 2.0])
        g = relu_grad(x, np.ones(3))
        assert list(g) == [0.0, 0.0, 1.0]

    def test_relu_writes_over_its_input(self):
        x = np.array([-1.0, 0.5])
        assert relu(x) is x and list(x) == [0.0, 0.5]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mask_from_output_is_pre_activation_mask(self, dtype):
        """``relu_grad`` reads the ReLU output; on exact 0, -0.0 and
        NaN (either sign) its mask is the pre-activation's bit for
        bit, and so is the gradient it passes."""
        z = np.array([-1.0, -0.0, 0.0, np.nan, -np.nan, 1e-30, -1e-30,
                      np.inf, -np.inf, 2.0], dtype=dtype)
        z = np.tile(z, (3, 1))
        upstream = np.random.default_rng(0).standard_normal(
            z.shape).astype(dtype)
        upstream[0, 3] = np.nan
        out = relu(z.copy())
        assert np.array_equal(out > 0.0, z > 0.0)
        assert relu_grad(out, upstream).tobytes() == \
            (upstream * (z > 0.0)).tobytes()


def _concat_sage_step(layer, agg, h_src, grad_out, row_scales=None):
    """The SAGE update as ``concat([h_self, m]) @ W + b`` (the oracle
    of the split update): ``(output, dW, db, dh_src)``."""
    k, num_dst = layer.in_dim, agg.block.num_dst
    W, b = layer.linear.W, layer.linear.b
    m = agg.forward(h_src, row_scales)
    h_self = h_src[:num_dst] if row_scales is None \
        else h_src[:num_dst] * row_scales[:num_dst]
    a = np.concatenate([h_self, m], axis=1)
    z = a @ W + b
    dz = grad_out * (z > 0)
    da = dz @ W.T
    dh_src = agg.backward(da[:, k:])
    dh_src[:num_dst] += da[:, :k]
    return np.maximum(z, 0), a.T @ dz, dz.sum(axis=0), dh_src


class TestSplitSAGEUpdate:
    """``SAGELayer`` multiplies self rows and mean by ``W``'s two row
    blocks instead of forming the concat; it matches the concat within
    float32 GEMM rounding."""

    @pytest.mark.parametrize("scaled", [False, True])
    def test_matches_concat_oracle(self, scaled):
        rng = _rng()
        layer = SAGELayer(8, 6, rng)
        blk = LayerBlock(rng.integers(0, 40, 150), rng.integers(0, 15, 150),
                         40, 15)
        agg = layer.build_aggregator(blk, np.arange(40), np.arange(15),
                                     None)
        h_src = rng.standard_normal((40, 8)).astype(np.float32)
        grad_out = rng.standard_normal((15, 6)).astype(np.float32)
        row_scales = rng.random((40, 1)).astype(np.float32) + 0.5 \
            if scaled else None
        out, cache = layer.forward(agg, h_src, row_scales)
        dh_src = layer.backward(cache, grad_out)
        want = _concat_sage_step(layer, agg, h_src, grad_out, row_scales)
        got = (out, layer.linear.dW, layer.linear.db, dh_src)
        for name, x, y in zip(("out", "dW", "db", "dh_src"), got, want):
            assert x.dtype == np.float32, name
            np.testing.assert_allclose(x, y, rtol=1e-5, atol=1e-5,
                                       err_msg=name)
        assert (out > 0).any() and (out == 0).any()

    def test_cache_keeps_no_concat(self):
        rng = _rng()
        layer = SAGELayer(3, 4, rng)
        agg = layer.build_aggregator(_block(), np.arange(3), np.arange(2),
                                     None)
        h_src = rng.standard_normal((3, 3)).astype(np.float32)
        out, cache = layer.forward(agg, h_src)
        h_self, m = cache.update_inputs
        assert h_self.base is h_src and h_self.shape == (2, 3)
        assert m.shape == (2, 3) and cache.output is out

    def test_wrong_feature_width_raises(self):
        layer = SAGELayer(3, 4, _rng())
        agg = layer.build_aggregator(_block(), np.arange(3), np.arange(2),
                                     None)
        with pytest.raises(ShapeError):
            layer.forward(agg, np.zeros((3, 5), dtype=np.float32))


class TestInit:
    def test_xavier_bounds(self):
        W = xavier_uniform((50, 30), _rng())
        bound = np.sqrt(6.0 / 80)
        assert np.abs(W).max() <= bound
        assert W.shape == (50, 30)

    def test_xavier_requires_2d(self):
        with pytest.raises(ShapeError):
            xavier_uniform((5,), _rng())

    def test_zeros(self):
        assert not zeros_init((3,)).any()


class TestAggregators:
    def test_sparse_forward(self):
        agg = SparseAggregator(_block())
        h = np.arange(6, dtype=np.float64).reshape(3, 2)
        out = agg.forward(h)
        # dst0 <- src0 + src1 + src2 ; dst1 <- src2
        assert np.allclose(out[0], h[0] + h[1] + h[2])
        assert np.allclose(out[1], h[2])

    def test_sparse_backward_is_transpose(self):
        agg = SparseAggregator(_block())
        rng = _rng()
        h = rng.standard_normal((3, 4))
        g = rng.standard_normal((2, 4))
        # <S h, g> == <h, S^T g>
        lhs = np.sum(agg.forward(h) * g)
        rhs = np.sum(h * agg.backward(g))
        assert np.isclose(lhs, rhs)

    def test_segment_sum_matches_sparse(self):
        blk = _block()
        rng = _rng()
        h = rng.standard_normal((3, 5))
        w = rng.random(4)
        a = SparseAggregator(blk, w).forward(h)
        # The FPGA's scatter-gather stream: one edge at a time.
        b = np.zeros((blk.num_dst, 5))
        np.add.at(b, blk.dst_local, h[blk.src_local] * w[:, None])
        assert np.allclose(a, b)

    def test_duplicate_edges_sum(self):
        blk = LayerBlock(np.array([0, 0]), np.array([0, 0]), 1, 1)
        h = np.ones((1, 3))
        out = SparseAggregator(blk).forward(h)
        assert np.allclose(out, 2.0)

    def test_mean_weights(self):
        w = mean_edge_weights(_block())
        # dst0 has 3 in-edges, dst1 has 1.
        assert np.allclose(w, [1 / 3, 1 / 3, 1.0, 1 / 3])

    def test_mean_weights_isolated_dst(self):
        blk = LayerBlock(np.array([0]), np.array([0]), 2, 2)
        w = mean_edge_weights(blk)
        assert w.shape == (1,)

    def test_gcn_weights(self):
        blk = _block()
        w = gcn_edge_weights(blk, np.array([1, 1, 3, 3]),
                             np.array([1, 1, 1, 1]))
        assert np.allclose(w[0], 1.0 / 2.0)        # 1/sqrt(2*2)
        assert np.allclose(w[2], 1.0 / np.sqrt(8))

    def test_gcn_weights_shape_check(self):
        with pytest.raises(ShapeError):
            gcn_edge_weights(_block(), np.array([1.0]), np.array([1.0]))

    def test_add_self_edges(self):
        blk = add_self_edges(_block())
        assert blk.num_edges == 6
        pairs = set(zip(blk.src_local.tolist(), blk.dst_local.tolist()))
        assert (0, 0) in pairs and (1, 1) in pairs

    def test_shape_mismatch_raises(self):
        agg = SparseAggregator(_block())
        with pytest.raises(ShapeError):
            agg.forward(np.zeros((4, 2)))
        with pytest.raises(ShapeError):
            agg.backward(np.zeros((3, 2)))


class TestLinear:
    def test_forward_shape(self):
        lin = Linear(4, 3, _rng())
        y = lin.forward(np.ones((5, 4)))
        assert y.shape == (5, 3)

    def test_backward_accumulates(self):
        lin = Linear(2, 2, _rng())
        x = np.ones((3, 2))
        g = np.ones((3, 2))
        lin.backward(x, g)
        dW1 = lin.dW.copy()
        lin.backward(x, g)
        assert np.allclose(lin.dW, 2 * dW1)
        lin.zero_grad()
        assert not lin.dW.any() and not lin.db.any()

    def test_backward_returns_input_grad(self):
        lin = Linear(3, 2, _rng())
        x = _rng().standard_normal((4, 3))
        g = _rng().standard_normal((4, 2))
        dx = lin.backward(x, g)
        assert np.allclose(dx, g @ lin.W.T)

    def test_invalid_dims(self):
        with pytest.raises(ShapeError):
            Linear(0, 3, _rng())
        lin = Linear(2, 2, _rng())
        with pytest.raises(ShapeError):
            lin.forward(np.zeros((3, 5)))


class TestLoss:
    def test_uniform_logits_loss(self):
        logits = np.zeros((4, 8))
        loss, dl = softmax_cross_entropy(logits, np.zeros(4, dtype=int))
        assert np.isclose(loss, np.log(8))
        assert dl.shape == (4, 8)

    def test_gradient_sums_to_zero(self):
        rng = _rng()
        logits = rng.standard_normal((6, 5))
        _, dl = softmax_cross_entropy(logits, rng.integers(0, 5, 6))
        assert np.allclose(dl.sum(axis=1), 0.0)

    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        loss, _ = softmax_cross_entropy(logits, np.array([1, 2]))
        assert loss < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_confident_wrong_prediction_is_finite(self, dtype):
        """The true class's probability underflows to 0 in float32; the
        loss is still the exact margin, with no divide-by-zero."""
        logits = np.array([[0.0, 120.0]], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, dl = softmax_cross_entropy(logits, np.array([0]))
        assert loss == 120.0
        assert dl.dtype == dtype and np.isfinite(dl).all()

    def test_numeric_gradient(self):
        rng = _rng()
        logits = rng.standard_normal((3, 4))
        labels = np.array([0, 2, 1])
        _, dl = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        for i in range(3):
            for j in range(4):
                logits[i, j] += eps
                lp, _ = softmax_cross_entropy(logits, labels)
                logits[i, j] -= 2 * eps
                lm, _ = softmax_cross_entropy(logits, labels)
                logits[i, j] += eps
                assert np.isclose((lp - lm) / (2 * eps), dl[i, j],
                                  atol=1e-6)

    def test_errors(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros(3), np.zeros(3, dtype=int))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((2, 3)),
                                  np.array([0, 5]))
        with pytest.raises(ShapeError):
            softmax_cross_entropy(np.zeros((0, 3)),
                                  np.zeros(0, dtype=int))

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0
        assert accuracy(logits, np.array([1, 0])) == 0.0
        assert accuracy(np.zeros((0, 2)), np.zeros(0)) == 0.0


class TestModels:
    def test_build_model_layer_shapes(self):
        m = build_model("gcn", (8, 16, 4), seed=0)
        assert len(m.layers) == 2
        assert m.layers[0].linear.W.shape == (8, 16)
        assert m.layers[1].linear.W.shape == (16, 4)
        assert m.layers[0].activation and not m.layers[1].activation

    def test_sage_doubles_input(self):
        m = build_model("sage", (8, 16, 4), seed=0)
        assert m.layers[0].linear.W.shape == (16, 16)

    def test_build_model_rejects_unknown(self):
        with pytest.raises(ConfigError):
            build_model("gat", (8, 4))
        with pytest.raises(ConfigError):
            build_model("gcn", (8,))

    def test_same_seed_identical(self):
        a = build_model("gcn", (8, 16, 4), seed=5)
        b = build_model("gcn", (8, 16, 4), seed=5)
        assert np.array_equal(a.get_flat_params(), b.get_flat_params())

    def test_flat_roundtrip(self):
        m = build_model("sage", (6, 12, 3), seed=1)
        flat = m.get_flat_params()
        m2 = build_model("sage", (6, 12, 3), seed=2)
        m2.set_flat_params(flat)
        assert np.array_equal(m2.get_flat_params(), flat)
        with pytest.raises(ShapeError):
            m2.set_flat_params(flat[:-1])

    def test_model_size_bytes(self):
        dims = (128, 256, 172)
        assert model_size_bytes(dims, "gcn") == \
            (128 * 256 + 256 * 172) * 4
        assert model_size_bytes(dims, "sage") == \
            2 * (128 * 256 + 256 * 172) * 4

    def test_backward_before_forward_raises(self):
        m = build_model("gcn", (4, 2), seed=0)
        with pytest.raises(ShapeError):
            m.backward(np.zeros((1, 2)))

    def test_failed_forward_leaves_no_stale_caches(self, tiny_ds,
                                                   tiny_sampler):
        """A forward that raises must not leave the *previous* batch's
        caches for a following backward to consume silently."""
        mb, x0, _, m = _batch_and_model("gcn", tiny_ds, tiny_sampler)
        logits = m.forward(mb, x0, tiny_ds.graph.out_degrees)
        with pytest.raises(ShapeError):
            m.forward(mb, x0[:-1], tiny_ds.graph.out_degrees)
        with pytest.raises(ShapeError,
                           match="backward called before forward"):
            m.backward(np.zeros_like(logits))

    @pytest.mark.parametrize("model", ["gcn", "sage"])
    def test_predict_matches_forward_and_keeps_no_state(
            self, model, tiny_ds, tiny_sampler):
        mb, x0, labels, m = _batch_and_model(model, tiny_ds,
                                             tiny_sampler)
        deg = tiny_ds.graph.out_degrees
        assert np.array_equal(m.predict(mb, x0, deg),
                              build_model(model, _dims(tiny_ds, 2),
                                          seed=3).forward(mb, x0, deg))
        with pytest.raises(ShapeError,           # nothing was cached
                           match="backward called before forward"):
            m.backward(np.zeros((mb.targets.size, 1)))
        # ...and a pending backward is not disturbed by a predict.
        _, dlogits = softmax_cross_entropy(m.forward(mb, x0, deg),
                                           labels)
        m.predict(mb, x0, deg)
        m.backward(dlogits)
        assert m.get_flat_grads().any()


def _dims(ds, num_layers):
    return layer_dims(ds.spec.feature_dim, 10, ds.spec.num_classes,
                      num_layers)


def _batch_and_model(model, ds, sampler, num_layers=2):
    mb = sampler.sample(ds.train_ids[:8])
    x0 = ds.features[mb.input_nodes].astype(np.float64)
    return (mb, x0, ds.labels[mb.targets],
            build_model(model, _dims(ds, num_layers), seed=3))


def _spy(cls, name):
    """Patch ``cls.name`` with a call-counting pass-through."""
    return mock.patch.object(cls, name, autospec=True,
                             side_effect=getattr(cls, name))


class TestBackwardStopsAtParameters:
    """``GNNModel.backward`` back-propagates only what the optimizer
    consumes; the input-feature gradient of the first layer is never
    computed, and that changes no accumulated gradient bit."""

    @pytest.mark.parametrize("num_layers", [2, 3])
    @pytest.mark.parametrize("model", ["gcn", "sage"])
    def test_gradients_equal_full_chain_reference(self, model,
                                                  num_layers, tiny_ds):
        sampler = NeighborSampler(tiny_ds.graph, tiny_ds.train_ids,
                                  (4, 3, 2)[:num_layers],
                                  tiny_ds.spec.feature_dim, seed=5)
        mb, x0, labels, m = _batch_and_model(model, tiny_ds, sampler,
                                             num_layers)
        deg = tiny_ds.graph.out_degrees
        ref = build_model(model, _dims(tiny_ds, num_layers), seed=3)
        ref_loss, dh0 = full_chain_step(ref, mb, x0, deg, labels)
        assert dh0.shape == x0.shape and dh0.any()

        loss, dlogits = softmax_cross_entropy(m.forward(mb, x0, deg),
                                              labels)
        returned = m.backward(dlogits)
        assert loss == ref_loss
        for (name, g), (_, g_ref) in zip(m.gradients(),
                                         ref.gradients()):
            assert g.any(), name
            assert np.array_equal(g, g_ref), name
        assert returned is None

    def test_one_aggregation_backward_per_non_input_layer(
            self, tiny_ds, tiny_sampler):
        """Exactly ``L - 1`` ``SparseAggregator.backward`` calls per
        training step: the count of aggregation terms in the backward
        sum of the performance model, paper Eq. 10
        (``t_upd^1 + Σ_{l>=2} t_agg^l ⊕ t_upd^l`` —
        ``repro.hw.cost_models`` omits the layer-1 aggregation backward
        for the same reason), so the timing plane and the functional
        plane are pinned to each other."""
        mb, x0, labels, m = _batch_and_model("sage", tiny_ds,
                                             tiny_sampler)
        node = TrainerNode("t", "cpu", m, _dims(tiny_ds, 2), "sage")
        with _spy(SparseAggregator, "backward") as spy:
            node.train_minibatch(mb, x0, labels,
                                 tiny_ds.graph.out_degrees)
        assert spy.call_count == len(m.layers) - 1

    def test_no_aggregator_holds_a_transpose(self, tiny_ds,
                                             tiny_sampler):
        """The backward spmm multiplies through ``matrix.T``, SciPy's
        free view: after forward-only calls (``predict``, serving) and
        after training steps, every aggregator holds one sparse matrix,
        its own ``S``."""
        mb, x0, labels, m = _batch_and_model("gcn", tiny_ds,
                                             tiny_sampler)
        deg = tiny_ds.graph.out_degrees
        node = TrainerNode("t", "cpu", m, _dims(tiny_ds, 2), "gcn")
        clock = VirtualClock()
        serving = ServingSession(
            tiny_ds,
            TrainingConfig(model="sage", minibatch_size=8,
                           fanouts=(3, 2), hidden_dim=8, seed=1),
            config=ServingConfig(latency_budget_s=0.2,
                                 max_batch_targets=8), clock=clock)
        built = []
        init = SparseAggregator.__init__

        def record(agg, *args, **kwargs):
            init(agg, *args, **kwargs)
            built.append(agg)

        def sparse_members(aggs):
            return {tuple(k for k, v in vars(a).items() if sp.issparse(v))
                    for a in aggs}

        with mock.patch.object(SparseAggregator, "__init__", record), \
                _spy(SparseAggregator, "backward") as spy:
            m.predict(mb, x0, deg)
            serving.submit(tiny_ds.train_ids[:4])
            clock.advance(1.0)
            assert len(serving.step()) == 1
            serving.close()
            forward_only = list(built)
            assert len(forward_only) == 2 * len(m.layers)
            assert sparse_members(forward_only) == {("matrix",)}

            node.train_minibatch(mb, x0, labels, deg)
            trained = built[len(forward_only):]
            assert len(trained) == len(m.layers)
            assert spy.call_count == len(m.layers) - 1
            assert sparse_members(trained) == {("matrix",)}

    @pytest.mark.parametrize("cls", [GCNLayer, SAGELayer])
    def test_layer_input_gradient_matches_finite_differences(self,
                                                             cls):
        """The layer-level input gradient on its own: layers >= 2 run
        it on every batch, but the model no longer does for layer 1, so
        it is not left to indirect coverage through lower-layer
        parameters."""
        rng = _rng()
        layer = cls(3, 4, rng)
        blk = _block()
        agg = layer.build_aggregator(blk, np.arange(3), np.arange(2),
                                     None)
        h_src = rng.standard_normal((3, 3))
        weights = rng.standard_normal((2, 4))

        def loss():
            return float((layer.forward(agg, h_src)[0] * weights).sum())

        _, cache = layer.forward(agg, h_src)
        analytic = layer.backward(cache, weights)
        assert np.allclose(analytic, numeric_gradient(loss, h_src),
                           atol=1e-6)
        assert layer.backward(cache, weights, input_grad=False) is None


def _fresh_relu_gcn_forward(layer, aggregator, h_src, row_scales=None):
    """``GCNLayer.forward`` with ReLU into a fresh array and the
    pre-activation cached for the backward mask."""
    a = aggregator.forward(h_src, row_scales)
    z = layer.linear.forward(a)
    h = np.maximum(z, 0.0) if layer.activation else z
    return h, LayerCache(aggregator=aggregator, update_inputs=(a,),
                         output=z)


class TestGCNTrajectoryUnchanged:
    def test_virtual_epoch_bit_identical_to_pre_activation_route(
            self, tiny_ds, fpga_platform):
        """The in-place ReLU and the output mask move no GCN bit: a
        seeded ``virtual`` epoch gives the losses and parameters of the
        fresh-ReLU, pre-activation-mask route."""
        cfg = TrainingConfig(model="gcn", minibatch_size=32,
                             fanouts=(4, 3), hidden_dim=16,
                             learning_rate=0.05, seed=11)

        def epoch():
            session = TrainingSession(tiny_ds, cfg,
                                      platform=fpga_platform,
                                      profile_probes=2)
            losses = VirtualTimeBackend(session).run_epoch().losses
            return losses, [t.model.get_flat_params().tobytes()
                            for t in session.trainers]

        losses, params = epoch()
        with mock.patch.object(GCNLayer, "forward",
                               _fresh_relu_gcn_forward):
            want_losses, want_params = epoch()
        assert len(losses) > 1
        assert losses == want_losses and params == want_params


class TestGradcheck:
    @pytest.mark.parametrize("model", ["gcn", "sage"])
    def test_model_gradients(self, model, tiny_ds, tiny_sampler):
        mb = tiny_sampler.sample(tiny_ds.train_ids[:8])
        x0 = tiny_ds.features[mb.input_nodes].astype(np.float64)
        labels = tiny_ds.labels[mb.targets]
        m = build_model(model,
                        layer_dims(tiny_ds.spec.feature_dim, 10,
                                   tiny_ds.spec.num_classes, 2), seed=3)
        worst = check_model_gradients(
            m, mb, x0, labels,
            global_degrees=tiny_ds.graph.out_degrees, max_entries=12)
        assert worst < 1e-3


class TestOptim:
    def _loss(self, m, x):
        return float(((x @ m.layers[0].linear.W) ** 2).sum())

    def test_sgd_step_direction(self):
        m = build_model("gcn", (3, 2), seed=0)
        opt = SGD(m, lr=0.1)
        g = np.ones_like(m.layers[0].linear.dW)
        m.layers[0].linear.dW += g
        before = m.layers[0].linear.W.copy()
        opt.step()
        assert np.allclose(m.layers[0].linear.W, before - 0.1)

    def test_sgd_momentum_accumulates(self):
        m = build_model("gcn", (3, 2), seed=0)
        opt = SGD(m, lr=0.1, momentum=0.9)
        before = m.layers[0].linear.W.copy()
        for _ in range(2):
            m.zero_grad()
            m.layers[0].linear.dW += 1.0
            opt.step()
        # Second step includes momentum: total = 0.1 + 0.1*1.9.
        assert np.allclose(m.layers[0].linear.W, before - 0.1 - 0.19)

    def test_adam_converges_quadratic(self):
        m = build_model("gcn", (3, 3), seed=1)
        opt = Adam(m, lr=0.05)
        for _ in range(300):
            m.zero_grad()
            m.layers[0].linear.dW += 2 * m.layers[0].linear.W
            m.layers[0].linear.db += 2 * m.layers[0].linear.b
            opt.step()
        assert np.abs(m.layers[0].linear.W).max() < 1e-2

    def test_invalid_hyperparams(self):
        m = build_model("gcn", (3, 2), seed=0)
        with pytest.raises(ConfigError):
            SGD(m, lr=0.0)
        with pytest.raises(ConfigError):
            SGD(m, lr=0.1, momentum=1.0)
        with pytest.raises(ConfigError):
            Adam(m, lr=-1.0)
        with pytest.raises(ConfigError):
            Adam(m, beta1=1.0)
