"""The serving conformance tier, plus the failed-batch and two-session
stats-isolation regressions.

``backend_conformance.assert_serving_conforms`` is the serving-plane
counterpart of the training parity matrix: every submitted request
gets exactly one outcome, executed batches reproduce a reference
replay of the shared :class:`StagePipeline` + model **bit for bit**,
per-tenant credits conserve, and kernel stats land on the session's
own counters. This module runs that matrix over the interesting
configurations, and pins the regression the scoped handle exists for:
a training session and a serving session running *concurrently* must
not interleave kernel counters.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from backend_conformance import (
    assert_serving_conforms,
    default_serving_script,
)
from repro.config import SystemConfig, TrainingConfig
from repro.runtime import TrainingSession, build_backend
from repro.runtime.resctl import NodeAllocator
from repro.serving import ServingConfig, ServingSession, VirtualClock


class TestServingConformance:
    def test_accel_int8_stack(self, tiny_ds, small_cfg):
        """The flagship serving stack: fused gather+int8 quantize on
        the accel transfer path, credits disabled."""
        assert_serving_conforms(
            tiny_ds, small_cfg,
            SystemConfig(transfer_precision="int8"),
            config=ServingConfig(latency_budget_s=0.2,
                                 max_batch_targets=16,
                                 max_pending_requests=64,
                                 device="accel"),
            script=default_serving_script(tiny_ds))

    def test_cpu_fp32_stack_with_tight_credits(self, tiny_ds,
                                               small_cfg):
        """CPU transfer path (identity policy) under a credit bucket
        tight enough that the audit sees real ``no_credit`` sheds —
        conservation must still hold."""
        assert_serving_conforms(
            tiny_ds, small_cfg, SystemConfig(),
            config=ServingConfig(latency_budget_s=0.2,
                                 max_batch_targets=16,
                                 max_pending_requests=64,
                                 credit_rate_targets_per_s=200.0,
                                 credit_burst_targets=24,
                                 device="cpu"),
            script=default_serving_script(tiny_ds, num_requests=60))

    def test_tiny_queue_sheds_queue_full_without_drops(self, tiny_ds,
                                                       small_cfg):
        """A one-slot admission queue sheds most of the script as
        ``queue_full``; the partition/bit-parity matrix must hold for
        whatever was accepted."""
        assert_serving_conforms(
            tiny_ds, small_cfg, SystemConfig(),
            config=ServingConfig(latency_budget_s=0.2,
                                 max_batch_targets=16,
                                 max_pending_requests=1,
                                 device="cpu"),
            script=default_serving_script(tiny_ds),
            step_every=1)

    def test_saint_sampler_stack(self, tiny_ds):
        """The conformance matrix is sampler-agnostic: a non-neighbor
        sampler behind the same registry surface must pass it too."""
        cfg = TrainingConfig(model="sage", minibatch_size=32,
                             fanouts=(4, 3), hidden_dim=16,
                             learning_rate=0.05, seed=11,
                             sampler="saint-rw")
        assert_serving_conforms(
            tiny_ds, cfg, SystemConfig(),
            config=ServingConfig(latency_budget_s=0.2,
                                 max_batch_targets=16,
                                 device="cpu"),
            script=default_serving_script(tiny_ds, num_requests=24))


class TestFailedBatch:
    """A micro-batch whose execution raises answers every member with a
    typed ``failed`` response, returns its admission slots, and leaves
    the session serving."""

    @staticmethod
    def _session(tiny_ds, small_cfg, monkeypatch, **config):
        session = ServingSession(
            tiny_ds, small_cfg, SystemConfig(),
            config=ServingConfig(latency_budget_s=0.2, device="cpu",
                                 **config),
            allocator=NodeAllocator(depth_budget=8),
            clock=VirtualClock())
        real_predict = session.model.predict
        calls = []

        def predict_once_broken(*args):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("injected forward failure")
            return real_predict(*args)

        monkeypatch.setattr(session.model, "predict",
                            predict_once_broken)
        return session

    def test_failed_batch_answers_members_and_frees_slots(
            self, tiny_ds, small_cfg, monkeypatch, caplog):
        session = self._session(tiny_ds, small_cfg, monkeypatch)
        targets = tiny_ds.train_ids
        assert session.submit(targets[:3]) is None
        assert session.submit(targets[3:5]) is None

        with caplog.at_level("ERROR", logger="repro.serving"):
            failed = session.drain()
        assert [(r.request_id, r.reason) for r in failed] == \
            [(0, "failed"), (1, "failed")]
        assert "micro-batch 0 failed" in caplog.text
        assert session.admission.pending == 0
        assert session.report.failed == 2
        assert session.report.completed == 0

        assert session.submit(targets[5:7]) is None
        (served,) = session.drain()
        assert served.request_id == 2
        assert served.predictions.shape == (2,)
        report = session.close()
        assert (report.accepted, report.completed, report.failed) == \
            (3, 1, 2)
        assert session.admission.pending == 0

    def test_other_batches_taken_by_the_step_still_execute(
            self, tiny_ds, small_cfg, monkeypatch):
        # Size-flushed one-request batches: one step takes both.
        session = self._session(tiny_ds, small_cfg, monkeypatch,
                                max_batch_targets=2)
        targets = tiny_ds.train_ids
        assert session.submit(targets[:2]) is None
        assert session.submit(targets[2:4]) is None
        failed, served = session.step()
        assert (failed.request_id, failed.reason) == (0, "failed")
        assert served.request_id == 1 and served.predictions.size == 2
        assert session.admission.pending == 0
        assert (session.report.failed, session.report.completed) == (1, 1)

    def test_failed_requests_keep_their_credits_spent(
            self, tiny_ds, small_cfg, monkeypatch):
        # The virtual clock never advances, so no bucket refills.
        session = self._session(tiny_ds, small_cfg, monkeypatch,
                                credit_rate_targets_per_s=1.0,
                                credit_burst_targets=5)
        targets = tiny_ds.train_ids
        assert session.submit(targets[:4]) is None
        (failed,) = session.drain()
        assert failed.reason == "failed"
        assert session.credits.balance("default") == pytest.approx(1.0)
        assert session.credits.ledger()["default"]["spent_targets"] == 4
        shed = session.submit(targets[4:6])
        assert shed is not None and shed.reason == "no_credit"
        assert session.submit(targets[6:7]) is None
        (served,) = session.drain()
        assert served.predictions.shape == (1,)

    def test_failed_is_reported_and_zero_on_the_happy_path(
            self, tiny_ds, small_cfg):
        session = ServingSession(
            tiny_ds, small_cfg, SystemConfig(),
            config=ServingConfig(latency_budget_s=0.2, device="cpu"),
            allocator=NodeAllocator(depth_budget=8),
            clock=VirtualClock())
        targets = tiny_ds.train_ids
        assert session.submit(targets[:3]) is None
        (served,) = session.drain()
        assert served.predictions.shape == (3,)
        summary = session.close().to_dict()
        assert (summary["accepted"], summary["completed"],
                summary["failed"]) == (1, 1, 0)


class TestTwoSessionStatsIsolation:
    """The regression the session-scoped handles exist for: concurrent
    sessions must not interleave each other's stats."""

    def _train(self, tiny_ds, small_cfg):
        session = TrainingSession(tiny_ds, small_cfg,
                                  SystemConfig(hybrid=True, drm=False),
                                  num_trainers=2)
        backend = build_backend("threaded", session, timeout_s=30.0)
        report = backend.run_epoch(4)
        return backend, report

    def test_concurrent_training_and_serving_do_not_interleave(
            self, tiny_ds, small_cfg):
        # Solo training run: the kernel-stats baseline.
        _, solo = self._train(tiny_ds, small_cfg)

        # Same training run again, now with a serving session churning
        # on another thread for its whole duration.
        clock = VirtualClock()
        serving = ServingSession(
            tiny_ds, small_cfg, SystemConfig(),
            config=ServingConfig(latency_budget_s=0.2,
                                 max_batch_targets=8, device="cpu"),
            allocator=NodeAllocator(depth_budget=8), clock=clock)
        stop = threading.Event()
        rng = np.random.default_rng(2)

        def serve_loop():
            while not stop.is_set():
                serving.submit(rng.choice(tiny_ds.train_ids, size=4,
                                          replace=False))
                clock.advance(0.05)
                serving.step()
            clock.advance(1.0)
            serving.drain()

        thread = threading.Thread(target=serve_loop, daemon=True)
        thread.start()
        try:
            backend, concurrent = self._train(tiny_ds, small_cfg)
        finally:
            stop.set()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        report = serving.close()

        # Training's counters saw none of serving's work: identical
        # stats to the solo run, bit for bit.
        assert concurrent.kernel_stats == solo.kernel_stats
        np.testing.assert_array_equal(solo.losses, concurrent.losses)

        # Serving's counters saw exactly its own work.
        assert report.completed == report.accepted > 0
        assert report.kernel_stats.get("gather_rows", 0) > 0
        assert serving.counters is not backend.counters


class TestGrantCap:
    """``step()`` executes at most its grant's live cap: the equal
    share of the node budget while a co-tenant holds a grant, its own
    ``max_depth`` once the co-tenant releases."""

    def test_step_executes_at_most_the_live_cap(self, tiny_ds,
                                                small_cfg):
        alloc = NodeAllocator(depth_budget=4)
        config = ServingConfig(latency_budget_s=0.2, max_batch_targets=4,
                               max_depth=4, device="cpu")
        serving, tenant = (
            ServingSession(tiny_ds, small_cfg, SystemConfig(),
                           config=config, allocator=alloc,
                           clock=VirtualClock())
            for _ in range(2))
        targets = tiny_ds.train_ids[:4]
        for _ in range(8):
            # A full-size request seals its own batch on arrival.
            assert serving.submit(targets) is None
        assert serving.batcher.ready_batches == 8
        # Contended: the equal share 4 // 2 caps the step.
        assert len(serving.step()) == 2
        tenant.close()
        # Released: the cap rises to this session's max_depth at once.
        assert len(serving.step()) == 4
        assert len(serving.step()) == 2
        serving.close()
        assert [kind for kind, _ in alloc.events] == \
            ["register", "register", "release", "release"]
        assert alloc.active_count == 0
        assert alloc.available_depth == 4
