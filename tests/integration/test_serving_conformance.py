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
from repro.errors import ProtocolError
from repro.runtime import TrainingSession, build_backend
from repro.serving import (
    LoadSpec,
    ServingConfig,
    ServingSession,
    VirtualClock,
    run_open_loop,
)


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
    typed ``failed`` response, leaves the pending ledger, and leaves
    the session serving."""

    @staticmethod
    def _session(tiny_ds, small_cfg, monkeypatch, **config):
        session = ServingSession(
            tiny_ds, small_cfg, SystemConfig(),
            config=ServingConfig(latency_budget_s=0.2, device="cpu",
                                 **config),
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
        assert session.batcher.pending_requests == 0
        assert session.report.failed == 2
        assert session.report.completed == 0

        assert session.submit(targets[5:7]) is None
        (served,) = session.drain()
        assert served.request_id == 2
        assert served.predictions.shape == (2,)
        report = session.close()
        assert (report.accepted, report.completed, report.failed) == \
            (3, 1, 2)
        assert session.batcher.pending_requests == 0

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
        assert session.batcher.pending_requests == 0
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
            clock=clock)
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


class TestStepDepth:
    """``step()`` executes at most ``max_depth`` batches, oldest first,
    however many are ready and however many other sessions exist."""

    @staticmethod
    def _backlog(tiny_ds, small_cfg, max_depth, batches):
        config = ServingConfig(latency_budget_s=0.2, max_batch_targets=4,
                               max_depth=max_depth, device="cpu")
        session = ServingSession(tiny_ds, small_cfg, SystemConfig(),
                                 config=config, clock=VirtualClock())
        targets = tiny_ds.train_ids[:4]
        for _ in range(batches):
            # A full-size request seals its own batch on arrival.
            assert session.submit(targets) is None
        assert session.batcher.ready_batches == batches
        return session

    def test_step_executes_at_most_max_depth(self, tiny_ds, small_cfg):
        serving = self._backlog(tiny_ds, small_cfg, max_depth=4,
                                batches=8)
        assert [r.request_id for r in serving.step()] == [0, 1, 2, 3]
        assert [r.request_id for r in serving.step()] == [4, 5, 6, 7]
        assert serving.batcher.pending_requests == 0
        assert serving.step() == []
        serving.close()

    def test_sessions_dropped_unclosed_leave_no_claim(self, tiny_ds,
                                                      small_cfg):
        """Sessions dropped without ``close()`` hold no claim on later
        ones: after 40 of them a fresh session still runs its
        ``max_depth`` of 2 batches in one step."""
        for _ in range(40):
            ServingSession(tiny_ds, small_cfg, SystemConfig(),
                           config=ServingConfig(device="cpu"),
                           clock=VirtualClock())
        fresh = self._backlog(tiny_ds, small_cfg, max_depth=2,
                              batches=4)
        assert len(fresh.step()) == 2
        fresh.close()


class TestPendingLedger:
    """``MicroBatcher.pending_requests`` is the session's one pending
    count: an accepted request enters it once and leaves it when its
    batch is taken, a shed request never enters it, and it is what
    bounds ``submit``, ends ``drain`` and ends the open loop's drain."""

    @staticmethod
    def _session(tiny_ds, small_cfg, clock=None, **config):
        return ServingSession(
            tiny_ds, small_cfg, SystemConfig(),
            config=ServingConfig(latency_budget_s=0.2, device="cpu",
                                 **config),
            clock=clock if clock is not None else VirtualClock())

    def test_queue_full_at_the_bound_then_admitted_after_a_step(
            self, tiny_ds, small_cfg):
        session = self._session(tiny_ds, small_cfg,
                                max_pending_requests=2)
        targets = tiny_ds.train_ids[:3]
        assert session.submit(targets) is None
        assert session.submit(targets) is None
        shed = session.submit(targets)
        assert (shed.request_id, shed.reason) == (2, "queue_full")
        assert session.batcher.pending_requests == 2
        assert [r.request_id for r in session.step()] == [0, 1]
        assert session.batcher.pending_requests == 0
        assert session.submit(targets) is None
        assert session.batcher.pending_requests == 1
        assert session.report.shed == {"queue_full": 1}

    @staticmethod
    def _provoke(session, reason, ids, num_vertices):
        """Shed one request for ``reason`` from a session holding one
        accepted 3-target request, 1 credit left of a 4-target burst
        and room for one more pending request."""
        if reason == "closed":
            session.close()
            return session.submit(ids[:1])
        if reason == "invalid":
            return session.submit([num_vertices])
        if reason == "no_credit":
            return session.submit(ids[:3])
        assert session.submit(ids[:1]) is None      # fills the queue
        return session.submit(ids[:1])

    @pytest.mark.parametrize("reason", ["closed", "invalid",
                                        "no_credit", "queue_full"])
    def test_a_shed_request_never_enters_the_ledger(
            self, tiny_ds, small_cfg, reason):
        session = self._session(tiny_ds, small_cfg,
                                max_pending_requests=2,
                                credit_rate_targets_per_s=1.0,
                                credit_burst_targets=4)
        ids = tiny_ds.train_ids
        assert session.submit(ids[:3]) is None
        before = session.report.accepted
        shed = self._provoke(session, reason, ids,
                             tiny_ds.graph.num_vertices)
        assert shed is not None and shed.reason == reason
        assert session.batcher.pending_requests == session.report.accepted
        assert session.report.accepted == \
            before + (reason == "queue_full")
        answered = session.drain()
        assert len(answered) == session.report.accepted == \
            session.report.completed
        assert session.batcher.pending_requests == 0

    def test_drain_steps_max_depth_at_a_time_until_nothing_is_pending(
            self, tiny_ds, small_cfg):
        """Five sealed batches and an open one: ``drain`` runs the
        backlog ``max_depth`` at a time, oldest first, and flushes the
        open batch only once no sealed one is left."""
        session = self._session(tiny_ds, small_cfg, max_batch_targets=4,
                                max_depth=2)
        ids = tiny_ds.train_ids
        for _ in range(5):
            assert session.submit(ids[:4]) is None
        assert session.submit(ids[:1]) is None
        assert session.batcher.pending_requests == 6
        steps = []
        step = session.step
        session.step = lambda: (steps.append(step()), steps[-1])[1]
        answered = session.drain()
        assert [len(s) for s in steps] == [2, 2, 1, 1]
        assert [r.request_id for r in answered] == list(range(6))
        assert session.batcher.pending_requests == 0

    @staticmethod
    def _ticking():
        """A session clock that moves 1 ms on every read, so the open
        loop's schedule and grace deadline pass without sleeping."""
        clock = VirtualClock()

        def tick():
            clock.advance(1e-3)
            return clock()
        return tick

    def test_open_loop_ends_with_an_empty_ledger(self, tiny_ds,
                                                 small_cfg):
        session = self._session(tiny_ds, small_cfg, self._ticking(),
                                max_pending_requests=4)
        spec = LoadSpec(rate_rps=400.0, duration_s=0.1,
                        targets_per_request=4, grace_s=1.0)
        report = run_open_loop(session, spec).report
        assert session.batcher.pending_requests == 0
        assert report.accepted + sum(report.shed.values()) == \
            spec.num_requests
        assert report.completed == report.accepted > 0

    def test_open_loop_drain_gives_up_at_the_grace_deadline(
            self, tiny_ds, small_cfg):
        """A session whose steps answer nothing keeps its requests
        pending: the open loop's drain raises a typed error naming the
        count instead of spinning."""
        session = self._session(tiny_ds, small_cfg, self._ticking(),
                                max_pending_requests=4)
        session.step = lambda: []
        spec = LoadSpec(rate_rps=400.0, duration_s=0.1,
                        targets_per_request=4, grace_s=0.05)
        with pytest.raises(ProtocolError, match="with 4 pending"):
            run_open_loop(session, spec)
        assert session.report.shed["queue_full"] == spec.num_requests - 4
