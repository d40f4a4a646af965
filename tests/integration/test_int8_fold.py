"""Int8 batches train on their codes: the input layer folds the scale.

A training lane or process worker loads an int8 accelerator batch as
codes (cast to the store's dtype) plus one scale per row
(:meth:`~repro.runtime.stage_pipeline.StagePipeline.load_codes`), and
the model's input layer multiplies its edge weights by
``scale[src]`` instead of dequantizing every element. The public
hooks — ``load_features``, ``transfer_stage`` and serving's
``prepare`` — keep returning dequantized rows.

* a worker replica over a live segment loads the lanes' table codes and
  scales bit for bit, on both kernel tiers, zero and subnormal-scale
  rows included, and ``codes * scales`` is ``load_features`` bit for
  bit;
* the folded forward matches the dequantized one to float32 tolerance,
  logits and parameter gradients, GCN and SAGE;
* no lane or worker int8 load runs the full-size scale multiply
  (:func:`~repro.runtime.stage_pipeline.dequantize`, its one site);
* the replay's op check: the split stages equal the fused load for
  every precision and trainer kind.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro import SystemConfig, TrainingConfig
from repro.kernels import KernelCounters, fast, reference, scoped_counters
from repro.nn.loss import softmax_cross_entropy
from repro.nn.models import build_model
from repro.runtime import SharedFeatureStore, TrainingSession, build_backend
from repro.runtime.backends.process import WorkerReplica, WorkerSpec
from repro.runtime import stage_pipeline
from repro.runtime.stage_pipeline import StagePipeline

_CFG = TrainingConfig(model="sage", minibatch_size=32, fanouts=(4, 3),
                      hidden_dim=16, learning_rate=0.05, seed=11)


def _features():
    """A float32 store with an all-zero row and a row whose int8 scale
    is subnormal."""
    feats = np.random.default_rng(3).standard_normal(
        (24, 7)).astype(np.float32)
    feats[4] = 0.0
    feats[9] *= np.finfo(np.float32).tiny * 50
    return feats


def _batch(idx):
    return SimpleNamespace(input_nodes=np.asarray(idx))


@pytest.mark.parametrize("tier", ["fast", "reference"])
def test_lane_codes_equal_worker_codes(tier, tiny_ds, monkeypatch):
    """(a) A worker replica over a live segment loads the lane's table
    codes and scales bit for bit, from the segment's copy and without
    encoding; (b) their product is the dequantized load."""
    if tier == "reference":
        for op in ("gather", "encode", "decode"):
            monkeypatch.setattr(fast, op, getattr(reference, op))
    feats = tiny_ds.features.copy()
    feats[4] = 0.0
    feats[9] *= np.finfo(np.float32).tiny * 50
    ds = dataclasses.replace(tiny_ds, features=feats)
    session = TrainingSession(
        ds, _CFG, SystemConfig(drm=False, transfer_precision="int8"),
        num_trainers=2)
    trainer = session.trainers[1]
    flat = trainer.model.get_flat_params()
    store = SharedFeatureStore.create(
        ds, sampler_spec=session.shared_sampler_spec(),
        grad_slab=np.zeros_like(flat, shape=(3, flat.size)),
        wire_table=session.pipeline.table("accel"))
    replica = WorkerReplica(store, WorkerSpec(
        index=1, name=trainer.name, kind=trainer.kind,
        model_name=trainer.model_name, dims=trainer.dims, seed=_CFG.seed,
        learning_rate=_CFG.learning_rate, transfer_precision="int8",
        replica_cls=WorkerReplica))
    try:
        mb = _batch([4, 9, 0, 9, -1, 23, 4])
        lane_x, lane_s = session.pipeline.load_codes(mb, "accel")
        bag = KernelCounters()
        with scoped_counters(bag):
            work_x, work_s = replica.load_codes(mb, "accel")
        assert "encode_calls" not in bag.snapshot()
        assert not replica.wire_table.codes.flags.writeable
    finally:
        store.close()
        store.unlink()
    assert lane_x.dtype == work_x.dtype == lane_s.dtype == np.float32
    assert lane_s.shape == work_s.shape == (7, 1)
    np.testing.assert_array_equal(lane_x, work_x)
    np.testing.assert_array_equal(lane_s, work_s)
    assert (np.abs(lane_x) <= 127).all()
    assert (lane_x == np.rint(lane_x)).all()
    want = reference.quantize(reference.gather(feats, mb.input_nodes),
                              "int8")
    np.testing.assert_array_equal(work_x * work_s, want)


@pytest.mark.parametrize("precision, kind", [
    ("int8", "cpu"), ("fp16", "accel"), ("fp32", "accel")])
def test_other_loads_carry_no_scales(precision, kind):
    feats = _features()
    pipe = StagePipeline(SimpleNamespace(sample=_batch), feats, None,
                         precision)
    rows, scales = pipe.load_codes(_batch([1, 2, 2]), kind)
    assert scales is None
    np.testing.assert_array_equal(rows, pipe.load(_batch([1, 2, 2]), kind))


def test_codes_times_scales_is_load_features(tiny_ds):
    """(b) On a session: the lanes' codes times their scales equal the
    public ``load_features`` hook bit for bit."""
    session = TrainingSession(
        tiny_ds, _CFG, SystemConfig(drm=False, transfer_precision="int8"),
        num_trainers=2)
    mb = session.sample_stage(tiny_ds.train_ids[:32])
    codes, scales = session.pipeline.load_codes(mb, "accel")
    np.testing.assert_array_equal(codes * scales,
                                  session.load_features(mb, "accel"))


@pytest.mark.parametrize("model_name", ["gcn", "sage"])
def test_folded_forward_matches_dequantized(model_name, tiny_ds):
    """(c) Logits and parameter gradients with ``row_scales`` match the
    dequantized forward within float32 tolerance."""
    cfg = TrainingConfig(model=model_name, minibatch_size=32,
                         fanouts=(4, 3), hidden_dim=16, seed=11)
    session = TrainingSession(
        tiny_ds, cfg, SystemConfig(drm=False, hybrid=False,
                                   transfer_precision="int8"),
        num_trainers=1)
    mb = session.sample_stage(tiny_ds.train_ids[:32])
    codes, scales = session.pipeline.load_codes(mb, "accel")
    x0 = session.load_features(mb, "accel")
    labels = session.labels_for(mb)
    runs = []
    for rows, row_scales in ((x0, None), (codes, scales)):
        model = build_model(model_name, session.dims, seed=3)
        logits = model.forward(mb, rows, session.degrees, row_scales)
        model.backward(softmax_cross_entropy(logits, labels)[1])
        runs.append((logits, model.get_flat_grads()))
    (want_logits, want_grads), (got_logits, got_grads) = runs
    assert got_logits.dtype == np.float32
    np.testing.assert_allclose(got_logits, want_logits,
                               rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(got_grads, want_grads,
                               rtol=1e-4, atol=1e-6)


def _refuse_full_size_multiply(monkeypatch):
    """Make the one full-size int8 scale multiply raise:
    ``stage_pipeline.dequantize`` of rows that carry scales. Forked
    workers inherit it."""
    real = stage_pipeline.dequantize

    def dequantize(wire):
        assert wire.scales is None, "a load ran the int8 scale multiply"
        return real(wire)

    monkeypatch.setattr(stage_pipeline, "dequantize", dequantize)


@pytest.mark.parametrize("name", ["virtual", "threaded", "process"])
def test_no_lane_or_worker_runs_the_scale_multiply(name, tiny_ds,
                                                   monkeypatch):
    """(d) An int8 epoch loads every accelerator batch without the
    full-size scale multiply, yet bills the same transfer counters."""
    _refuse_full_size_multiply(monkeypatch)
    session = TrainingSession(
        tiny_ds, _CFG, SystemConfig(drm=False, hybrid=True,
                                    transfer_precision="int8"),
        num_trainers=3)
    with build_backend(name, session) as backend:
        report = backend.run_epoch()
    assert np.isfinite(report.losses).all()
    stats = report.kernel_stats
    assert stats["decode_calls"] > 0
    assert stats["payload_bytes"] > 0


@pytest.mark.parametrize("precision", ["fp32", "fp16", "int8"])
@pytest.mark.parametrize("kind", ["cpu", "accel"])
def test_split_stages_equal_the_fused_load(precision, kind, tiny_ds):
    """(e) The replay's op check: ``transfer_stage(gather_stage(mb))``
    equals ``load_features(mb)`` bit for bit."""
    session = TrainingSession(
        tiny_ds, _CFG, SystemConfig(drm=False,
                                    transfer_precision=precision),
        num_trainers=2)
    mb = session.sample_stage(tiny_ds.train_ids[:32])
    split = session.transfer_stage(session.gather_stage(mb), kind)
    fused = session.load_features(mb, kind)
    assert split.dtype == fused.dtype
    np.testing.assert_array_equal(split, fused)
