"""Unit tests for runtime components: protocol, synchronizer, the
synchronize tail, the ``virtual`` preset, trainer, prefetch buffer, and
the DRM engine."""

import threading
import time

import numpy as np
import pytest

from repro.config import SystemConfig, layer_dims
from repro.errors import ConfigError, ProtocolError, ShapeError
from repro.nn.models import build_model
from repro.perfmodel.model import StageTimes, WorkloadSplit
from repro.runtime import TrainingSession, VirtualTimeBackend, build_backend
from repro.runtime.backends.report import Reply, RunReport
from repro.runtime.drm import MIN_ACCEL_TARGETS, DRMEngine
from repro.runtime.prefetch import PrefetchBuffer
from repro.sampling.base import MiniBatchStats
from repro.runtime.protocol import (
    ProtocolLog,
    Signal,
    validate_protocol,
)
from repro.runtime.synchronizer import GradientSynchronizer
from repro.runtime.trainer import TrainerNode


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------

def _good_log(n=3, iterations=2):
    log = ProtocolLog()
    for it in range(iterations):
        for i in range(n):
            log.record(it, Signal.DONE, f"t{i}")
        log.record(it, Signal.SYNC, "sync")
        for i in range(n):
            log.record(it, Signal.ACK, f"t{i}")
    return log


class TestProtocol:
    def test_valid_log_passes(self):
        validate_protocol(_good_log(), 3)

    def test_missing_done_fails(self):
        log = ProtocolLog()
        log.record(0, Signal.DONE, "t0")
        log.record(0, Signal.SYNC, "sync")
        log.record(0, Signal.ACK, "t0")
        log.record(0, Signal.ACK, "t1")
        with pytest.raises(ProtocolError):
            validate_protocol(log, 2)

    def test_ack_before_sync_fails(self):
        log = ProtocolLog()
        log.record(0, Signal.DONE, "t0")
        log.record(0, Signal.ACK, "t0")
        log.record(0, Signal.SYNC, "sync")
        with pytest.raises(ProtocolError):
            validate_protocol(log, 1)

    def test_duplicate_sender_fails(self):
        log = ProtocolLog()
        log.record(0, Signal.DONE, "t0")
        log.record(0, Signal.DONE, "t0")
        log.record(0, Signal.SYNC, "sync")
        log.record(0, Signal.ACK, "t0")
        log.record(0, Signal.ACK, "t1")
        with pytest.raises(ProtocolError):
            validate_protocol(log, 2)

    def test_interleaved_iterations_fail(self):
        log = ProtocolLog()
        log.record(1, Signal.DONE, "t0")   # iteration 1 starts first
        log.record(1, Signal.SYNC, "sync")
        log.record(1, Signal.ACK, "t0")
        log.record(0, Signal.DONE, "t0")
        log.record(0, Signal.SYNC, "sync")
        log.record(0, Signal.ACK, "t0")
        with pytest.raises(ProtocolError):
            validate_protocol(log, 1)

    def test_counts(self):
        log = _good_log(2, 1)
        assert log.count(0, Signal.DONE) == 2
        assert log.num_iterations == 1


# ---------------------------------------------------------------------------
# Synchronizer
# ---------------------------------------------------------------------------

def _replicas(n=3, seed=0):
    return [build_model("gcn", (4, 6, 2), seed=seed) for _ in range(n)]


class TestSynchronizer:
    def test_weighted_average(self):
        models = _replicas(2)
        sync = GradientSynchronizer(models)
        models[0].layers[0].linear.dW += 1.0
        models[1].layers[0].linear.dW += 3.0
        sync.all_reduce(batch_sizes=[1, 3])
        expected = (1.0 * 1 + 3.0 * 3) / 4
        for m in models:
            assert np.allclose(m.layers[0].linear.dW, expected)

    def test_zero_weight_trainer_excluded(self):
        models = _replicas(2)
        sync = GradientSynchronizer(models)
        models[0].layers[0].linear.dW += 2.0
        models[1].layers[0].linear.dW += 999.0
        sync.all_reduce(batch_sizes=[4, 0])
        for m in models:
            assert np.allclose(m.layers[0].linear.dW, 2.0)

    def test_batch_sizes_required(self):
        sync = GradientSynchronizer(_replicas(2))
        with pytest.raises(ProtocolError):
            sync.all_reduce()
        with pytest.raises(ShapeError):
            sync.all_reduce(batch_sizes=[1])

    def test_mismatched_replicas(self):
        with pytest.raises(ShapeError):
            GradientSynchronizer([build_model("gcn", (4, 2), 0),
                                  build_model("gcn", (4, 3), 0)])


class TestSynchronizeTail:
    """``ExecutionBackend.end_iteration``: Listing 1's synchronizer
    block, exercised directly with hand-made answers."""

    @pytest.fixture()
    def backend(self, tiny_ds, small_cfg):
        session = TrainingSession(tiny_ds, small_cfg,
                                  SystemConfig(drm=False),
                                  num_trainers=2, profile_probes=2)
        return VirtualTimeBackend(session)

    def test_idle_trainer_signals_done_with_weight_zero(self, backend):
        s = backend.session
        busy, idle = (t.model for t in s.trainers)
        busy.set_flat_grads(np.ones(busy.num_params))
        idle.set_flat_grads(np.full(idle.num_params, 99.0))
        report = RunReport(iterations=1)
        published = []
        answer = Reply(loss=1.5, accuracy=0.25, stage_s={"train": 0.0},
                       stats=MiniBatchStats((9, 5, 4), (3, 5), 12))
        backend.end_iteration(0, [4, 0], [answer, None], report, [],
                              publish=published.append)
        validate_protocol(report.protocol_log, 2)
        signals = [e.signal for e in report.protocol_log.events]
        assert signals == [Signal.DONE, Signal.DONE, Signal.SYNC,
                           Signal.ACK, Signal.ACK, Signal.ITER_START]
        # The idle replica was zero-graded, so the average is the busy
        # gradient alone — published before any optimizer stepped.
        np.testing.assert_array_equal(published[0], 1.0)
        assert (report.losses, report.accuracies) == ([1.5], [0.25])
        assert report.total_edges == 8
        assert s.synchronizer.replicas_consistent()

    def test_all_idle_iteration_is_rejected(self, backend):
        report = RunReport(iterations=1)
        with pytest.raises(ShapeError):
            backend.end_iteration(0, [0, 0], [None, None], report, [])


class TestVirtualPreset:
    """``virtual``: the in-process driver with the thread-less inline
    feed, reporting through :class:`RunReport` like every plane."""

    @pytest.fixture()
    def timed(self, tiny_ds, small_cfg, fpga_platform):
        return VirtualTimeBackend(TrainingSession(
            tiny_ds, small_cfg, platform=fpga_platform, profile_probes=2))

    @pytest.mark.parametrize("iterations", [1, 2, 5])
    def test_every_iteration_takes_its_timing_step(self, timed,
                                                   iterations):
        """Every iteration's DRM step, the last one's included, runs
        before the feed hands over that iteration's last batch."""
        rep = timed.run(iterations)
        assert len(rep.split_history) == iterations
        assert len(rep.stage_history) == iterations
        assert rep.virtual_time_s == rep.timeline.makespan > 0

    def test_live_fields_are_filled(self, timed):
        rep = timed.run(3)
        assert rep.wall_time_s > 0 and rep.replicas_consistent
        assert rep.stage_stats == {} and rep.prefetch_high_water == 0
        # Realized stage seconds reach the report on this plane too:
        # one load per trained batch.
        loads, load_s = rep.stage_seconds["load"]
        assert loads >= 3 and load_s > 0

    @pytest.mark.parametrize("name", ["virtual", "threaded", "pipelined"])
    def test_every_load_owns_its_rows(self, timed, name, monkeypatch):
        """Every load returns a fresh array: no two batches a trainer
        receives across a run share memory."""
        seen = []
        train = TrainerNode.train_minibatch

        def spy(node, minibatch, x0, *args, **kwargs):
            seen.append(x0)
            return train(node, minibatch, x0, *args, **kwargs)

        monkeypatch.setattr(TrainerNode, "train_minibatch", spy)
        build_backend(name, timed.session).run(4)
        assert len(seen) >= 4
        for i, a in enumerate(seen):
            for b in seen[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_simulate_epoch_is_a_timing_only_run_report(self, timed):
        rep = timed.simulate_epoch(iterations=2)
        assert isinstance(rep, RunReport) and rep.iterations == 2
        assert rep.virtual_time_s == rep.timeline.makespan > 0
        assert rep.losses == [] and rep.wall_time_s == 0.0
        assert rep.protocol_log.num_iterations == 0

    def test_takes_no_knob(self):
        with pytest.raises(ConfigError, match=r"known options: \[\]"):
            build_backend("virtual", None, timeout_s=1.0)

    def test_fold_buffers_accepts_no_chain(self):
        report = RunReport(iterations=1)
        report.fold_buffers([])
        assert report.stage_stats == {}
        assert report.prefetch_high_water == 0


# ---------------------------------------------------------------------------
# TrainerNode
# ---------------------------------------------------------------------------

class TestTrainerNode:
    def test_functional_training(self, tiny_ds, tiny_sampler):
        dims = layer_dims(tiny_ds.spec.feature_dim, 8,
                          tiny_ds.spec.num_classes, 2)
        node = TrainerNode("t", "cpu", build_model("sage", dims, 0),
                           dims, "sage")
        mb = tiny_sampler.sample(tiny_ds.train_ids[:16])
        x0 = tiny_ds.features[mb.input_nodes].astype(np.float64)
        rep = node.train_minibatch(mb, x0, tiny_ds.labels[mb.targets],
                                   tiny_ds.graph.out_degrees)
        assert rep.loss > 0
        assert rep.batch_targets == 16
        grads = node.model.get_flat_grads()
        assert np.abs(grads).sum() > 0


# ---------------------------------------------------------------------------
# PrefetchBuffer
# ---------------------------------------------------------------------------

class TestPrefetchBuffer:
    def test_fifo_order(self):
        buf = PrefetchBuffer(3)
        for i in range(3):
            buf.put(i)
        assert [buf.get() for _ in range(3)] == [0, 1, 2]

    def test_depth_blocks_put(self):
        buf = PrefetchBuffer(1)
        buf.put("a")
        with pytest.raises(ProtocolError):
            buf.put("b", timeout=0.05)

    def test_close_drains(self):
        buf = PrefetchBuffer(2)
        buf.put("x")
        buf.close()
        assert buf.get() == "x"
        assert buf.get() is None
        with pytest.raises(ProtocolError):
            buf.put("y")

    def test_threaded_producer_consumer(self):
        buf = PrefetchBuffer(2)
        got = []

        def consumer():
            while True:
                item = buf.get(timeout=5)
                if item is None:
                    return
                got.append(item)

        t = threading.Thread(target=consumer)
        t.start()
        for i in range(20):
            buf.put(i, timeout=5)
        buf.close()
        t.join(timeout=5)
        assert got == list(range(20))
        assert buf.high_water <= 2
        assert buf.total_puts == 20

    def test_invalid_depth(self):
        with pytest.raises(ProtocolError):
            PrefetchBuffer(0)


class TestPrefetchBufferEdgeCases:
    def test_get_times_out_on_empty_buffer(self):
        buf = PrefetchBuffer(2)
        with pytest.raises(ProtocolError, match="get timed out"):
            buf.get(timeout=0.05)

    def test_put_times_out_on_full_buffer(self):
        buf = PrefetchBuffer(1)
        buf.put("a")
        with pytest.raises(ProtocolError, match="put timed out"):
            buf.put("b", timeout=0.05)
        # The timed-out put must not have corrupted occupancy.
        assert buf.occupancy == 1
        assert buf.get() == "a"

    def test_put_after_close_rejected_even_when_space_free(self):
        buf = PrefetchBuffer(4)
        buf.close()
        with pytest.raises(ProtocolError, match="closed"):
            buf.put("x")
        assert buf.occupancy == 0
        assert buf.total_puts == 0

    def test_put_blocked_on_full_buffer_unblocks_on_close(self):
        """close() must wake a producer stuck in put() — the error path
        the threaded backend relies on for fast shutdown."""
        buf = PrefetchBuffer(1)
        buf.put("a")
        errors = []

        def producer():
            try:
                buf.put("b", timeout=5)
            except ProtocolError as exc:
                errors.append(exc)

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.05)
        buf.close()
        t.join(timeout=5)
        assert not t.is_alive()
        assert len(errors) == 1 and "closed" in str(errors[0])

    def test_occupancy_accounting_under_concurrent_producers(self):
        """N producers racing one consumer: occupancy never exceeds
        depth, high_water is sane, and total_puts counts every item."""
        depth, producers, per_producer = 3, 4, 25
        buf = PrefetchBuffer(depth)
        got = []
        occupancy_samples = []

        def producer(tag):
            for i in range(per_producer):
                buf.put((tag, i), timeout=5)
                occupancy_samples.append(buf.occupancy)

        def consumer():
            while True:
                item = buf.get(timeout=5)
                if item is None:
                    return
                got.append(item)

        consume = threading.Thread(target=consumer)
        consume.start()
        threads = [threading.Thread(target=producer, args=(p,))
                   for p in range(producers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        buf.close()
        consume.join(timeout=10)

        total = producers * per_producer
        assert buf.total_puts == total
        assert len(got) == total
        assert sorted(got) == sorted((p, i) for p in range(producers)
                                     for i in range(per_producer))
        assert 1 <= buf.high_water <= depth
        assert all(0 <= o <= depth for o in occupancy_samples)
        assert buf.occupancy == 0


class TestPrefetchDeadlineSemantics:
    """Timeouts are monotonic deadlines, not per-wait restarts.

    ``Condition.wait(timeout)`` restarts its timer on every call; the
    old put/get loops re-armed the full timeout after every wakeup, so
    a peer that kept notifying without making the predicate true could
    block a caller far past its requested deadline. These tests provoke
    exactly that: a waker thread repeatedly notifies the buffer's
    conditions (the legal spurious-wakeup scenario) while the predicate
    stays false, and assert the blocked call still fails on time.
    """

    def _spin_waker(self, buf, stop):
        wakeups = [0]

        def waker():
            while not stop.is_set():
                with buf._lock:
                    buf._not_full.notify_all()
                    buf._not_empty.notify_all()
                wakeups[0] += 1
                time.sleep(0.02)

        t = threading.Thread(target=waker, daemon=True)
        t.start()
        return t, wakeups

    def test_put_deadline_survives_repeated_wakeups(self):
        buf = PrefetchBuffer(1)
        buf.put("occupying")
        stop = threading.Event()
        waker, wakeups = self._spin_waker(buf, stop)
        outcome = []

        def blocked_put():
            try:
                buf.put("late", timeout=0.25)
                outcome.append("returned")
            except ProtocolError as exc:
                outcome.append(exc)

        t = threading.Thread(target=blocked_put, daemon=True)
        start = time.monotonic()
        t.start()
        t.join(timeout=2.0)
        elapsed = time.monotonic() - start
        stop.set()
        waker.join(timeout=5.0)
        # Old semantics: every 20 ms wakeup re-armed the 250 ms wait,
        # so the put outlives the 2 s join. New semantics: it fails at
        # ~250 ms no matter how many wakeups occurred in between.
        assert not t.is_alive(), \
            "put blocked past its deadline under repeated wakeups"
        assert elapsed < 1.5
        assert wakeups[0] >= 2, "scenario never provoked re-wakeups"
        assert len(outcome) == 1
        assert isinstance(outcome[0], ProtocolError)
        assert "put timed out" in str(outcome[0])

    def test_get_deadline_survives_repeated_wakeups(self):
        buf = PrefetchBuffer(1)          # stays empty
        stop = threading.Event()
        waker, wakeups = self._spin_waker(buf, stop)
        outcome = []

        def blocked_get():
            try:
                outcome.append(buf.get(timeout=0.25))
            except ProtocolError as exc:
                outcome.append(exc)

        t = threading.Thread(target=blocked_get, daemon=True)
        t.start()
        t.join(timeout=2.0)
        stop.set()
        waker.join(timeout=5.0)
        assert not t.is_alive(), \
            "get blocked past its deadline under repeated wakeups"
        assert wakeups[0] >= 2, "scenario never provoked re-wakeups"
        assert len(outcome) == 1
        assert isinstance(outcome[0], ProtocolError)
        assert "get timed out" in str(outcome[0])

    def test_zero_ish_timeout_fails_fast_when_full(self):
        buf = PrefetchBuffer(1)
        buf.put("a")
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="put timed out"):
            buf.put("b", timeout=0.001)
        assert time.monotonic() - start < 0.5


class TestPrefetchOccupancy:
    def test_occupancy_statistics(self):
        buf = PrefetchBuffer(4)
        assert buf.mean_occupancy == 0.0
        buf.put("a")                      # occ 1
        buf.put("b")                      # occ 2
        buf.get()                         # occ 1
        buf.get()                         # occ 0
        assert buf.total_puts == 2
        assert buf.total_gets == 2
        assert buf.high_water == 2
        assert buf.mean_occupancy == pytest.approx((1 + 2 + 1 + 0) / 4)


# ---------------------------------------------------------------------------
# DRM engine
# ---------------------------------------------------------------------------

def _times(**kw):
    base = dict(t_sample_cpu=1.0, t_sample_accel=0.0, t_load=1.0,
                t_transfer=1.0, t_train_cpu=1.0, t_train_accel=1.0,
                t_sync=0.01)
    base.update(kw)
    return StageTimes(**base)


def _drm(**kw):
    cfg = SystemConfig(hybrid=True, drm=True, prefetch=True)
    defaults = dict(minibatch_size=256, hybrid=True, hysteresis=0.05)
    defaults.update(kw)
    return DRMEngine(cfg, **defaults)


def _split(cpu=128):
    return WorkloadSplit(cpu_targets=cpu, accel_targets=(256, 256),
                         sample_threads=96, load_threads=64,
                         train_threads=96)


class TestDRM:
    def test_hysteresis_no_action(self):
        drm = _drm()
        split = _split()
        out = drm.adjust(split, _times(), 0)
        assert out is split
        assert drm.decisions[-1].action == "none"

    def test_accel_bottleneck_moves_work_to_cpu(self):
        drm = _drm()
        split = _split()
        out = drm.adjust(split, _times(t_train_accel=5.0), 0)
        assert out.cpu_targets > split.cpu_targets
        assert out.total_targets == split.total_targets
        assert drm.decisions[-1].action == "balance_work"

    def test_transfer_bottleneck_also_counts_as_accel(self):
        drm = _drm()
        out = drm.adjust(_split(), _times(t_transfer=5.0), 0)
        assert out.cpu_targets > 128

    def test_load_bottleneck_moves_threads(self):
        drm = _drm()
        split = _split()
        out = drm.adjust(split, _times(t_load=5.0), 0)
        assert out.load_threads > split.load_threads
        assert out.total_threads == split.total_threads
        assert drm.decisions[-1].action == "balance_thread"

    def test_cpu_sample_bottleneck_offloads_to_accel(self):
        drm = _drm()
        # T_SA fastest (zero) -> Algorithm 1 moves sampling to accels.
        out = drm.adjust(_split(), _times(t_sample_cpu=5.0), 0)
        assert out.accel_sample_fraction > 0

    def test_cpu_train_bottleneck_with_fast_accel_moves_work(self):
        drm = _drm()
        out = drm.adjust(
            _split(cpu=256),
            _times(t_train_cpu=5.0, t_sample_accel=0.2,
                   t_train_accel=0.1, t_transfer=0.1), 0)
        assert out.cpu_targets < 256

    def test_work_conservation_under_many_adjustments(self):
        drm = _drm()
        split = _split()
        rng = np.random.default_rng(0)
        total = split.total_targets
        for it in range(50):
            kw = {k: float(v) for k, v in zip(
                ("t_sample_cpu", "t_load", "t_transfer", "t_train_cpu",
                 "t_train_accel"), rng.uniform(0.5, 5.0, 5))}
            split = drm.adjust(split, _times(**kw), it)
            assert split.total_targets == total

    def test_accel_floor_respected(self):
        drm = _drm()
        split = WorkloadSplit(cpu_targets=0,
                              accel_targets=(MIN_ACCEL_TARGETS,) * 2,
                              sample_threads=96, load_threads=64,
                              train_threads=96)
        out = drm.adjust(split, _times(t_train_accel=9.0), 0)
        assert all(t >= MIN_ACCEL_TARGETS for t in out.accel_targets)

    def test_revert_on_regression(self):
        drm = _drm(revert_tolerance=0.01)
        split = _split()
        moved = drm.adjust(split, _times(t_train_accel=5.0), 0)
        assert moved is not split
        # Next iteration is much slower -> engine must revert.
        reverted = drm.adjust(moved, _times(t_train_accel=20.0), 1)
        assert drm.decisions[-1].action == "revert"
        assert reverted.cpu_targets == split.cpu_targets

    def test_trial_waits_for_a_full_window(self):
        """Calibrated (``settle``) steps act only once the split has
        been in effect for ``settle`` readings."""
        drm = _drm()
        split = _split()
        for it in range(2):
            assert drm.adjust(split, _times(t_train_accel=5.0), it,
                              settle=3, realized_s=1.0) is split
        assert drm.decisions == []
        moved = drm.adjust(split, _times(t_train_accel=5.0), 2,
                           settle=3, realized_s=1.0)
        assert moved.cpu_targets > split.cpu_targets
        assert moved.total_targets == split.total_targets

    @pytest.mark.parametrize("after, reverted", [(0.99, False),
                                                 (1.01, True)])
    def test_trial_is_judged_on_realized_seconds(self, after, reverted):
        """A move on trial stands only if its window's mean realized
        seconds per target beat the best split's, whatever the
        calibrated times say — no tolerance."""
        drm = _drm()
        split = _split()
        for it in range(3):
            moved = drm.adjust(split, _times(t_train_accel=5.0), it,
                               settle=3, realized_s=1.0)
        assert moved is not split
        for it in range(3, 6):
            out = drm.adjust(moved, _times(), it, settle=3,
                             realized_s=after)
        assert (drm.decisions[-1].action == "revert") == reverted
        assert out == (split if reverted else moved)

    def test_trial_never_compares_with_analytic_readings(self):
        """Readings taken before calibration (no ``settle``) are on
        the model's scale: the first calibrated move is not judged
        against them."""
        drm = _drm()
        split = _split()
        assert drm.adjust(split, _times(), 0) is split   # tiny metric
        for it in range(1, 4):
            moved = drm.adjust(split, _times(t_train_accel=5.0), it,
                               settle=3, realized_s=1.0)
        for it in range(4, 7):
            out = drm.adjust(moved, _times(), it, settle=3,
                             realized_s=1.0)
        assert out is moved
        assert all(d.action != "revert" for d in drm.decisions)

    def test_non_hybrid_never_assigns_cpu_work(self):
        drm = _drm(hybrid=False)
        split = WorkloadSplit(cpu_targets=0, accel_targets=(256, 256),
                              sample_threads=96, load_threads=64,
                              train_threads=0)
        out = drm.adjust(split, _times(t_train_accel=9.0), 0)
        assert out.cpu_targets == 0

    def test_thread_floor(self):
        drm = _drm()
        split = WorkloadSplit(cpu_targets=128,
                              accel_targets=(256, 256),
                              sample_threads=2, load_threads=64,
                              train_threads=96)
        # Sampler at near-floor cannot donate below 1 thread.
        out = drm.adjust(split, _times(t_load=9.0,
                                       t_sample_cpu=0.1), 0)
        assert out.sample_threads >= 1
