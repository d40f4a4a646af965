"""Pipelined-backend concurrency properties.

Two kinds of guarantee, per the conformance story:

* the **adaptive-depth policy** is a pure function of modelled stage
  times — hypothesis drives it over the whole input space (including
  degenerate zero/inf times) and asserts it can never starve a stage
  (depth >= 1) nor exceed the configured cap;
* the **live pipeline** honors those bounds end-to-end: a run with DRM
  shifting the split never records a depth outside ``[1, max_depth]``,
  and every stage shows real occupancy whenever work remained (no
  producer stage ever idles the train stage out of existence);
* the **training lanes** train an iteration's batches side by side,
  on at most ``min(trainers, usable cores)`` threads, and still hand
  the synchronize tail its answers in trainer order.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig, TrainingConfig
from repro.errors import ProtocolError
from repro.perfmodel.model import StageTimes
from repro.runtime import (
    PipelinedBackend,
    TrainingSession,
    VirtualTimeBackend,
)
from repro.runtime.backends.overlap import adaptive_depth
from repro.runtime.backends.pipelined import InlineFeed, usable_cores
from repro.runtime.backends.report import RunReport

common_settings = settings(max_examples=60, deadline=None)

#: Non-negative stage durations, including the degenerate extremes the
#: perf model can produce (zero-cost stages, inf on a mis-calibrated
#: platform).
durations = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.just(0.0),
    st.just(float("inf")))


@st.composite
def stage_times(draw):
    return StageTimes(
        t_sample_cpu=draw(durations), t_sample_accel=draw(durations),
        t_load=draw(durations), t_transfer=draw(durations),
        t_train_cpu=draw(durations), t_train_accel=draw(durations),
        t_sync=draw(durations))


class TestAdaptiveDepthPolicy:
    @common_settings
    @given(stage_times(), st.integers(1, 64))
    def test_depth_never_exceeds_cap_never_starves(self, times, cap):
        """The two safety bounds: 1 <= depth <= cap for *any* stage
        times — a depth of 0 would wedge every stage handoff, a depth
        above the cap would blow the configured memory budget."""
        depth = adaptive_depth(times, cap=cap)
        assert 1 <= depth <= cap

    @common_settings
    @given(stage_times(), st.integers(1, 64), st.integers(1, 64))
    def test_floor_respected(self, times, cap, floor):
        if floor > cap:
            floor, cap = cap, floor
        depth = adaptive_depth(times, cap=cap, floor=floor)
        assert floor <= depth <= cap

    @common_settings
    @given(st.floats(0.001, 1e3), st.floats(0.001, 1e3),
           st.floats(1.0, 4.0), st.integers(1, 32))
    def test_monotone_in_producer_time(self, producer, consumer,
                                       scale, cap):
        """A slower producer never gets *less* look-ahead: depth is
        monotone in the producer/consumer ratio."""
        def mk(p):
            return StageTimes(t_sample_cpu=p, t_sample_accel=0.0,
                              t_load=0.0, t_transfer=0.0,
                              t_train_cpu=consumer,
                              t_train_accel=0.0, t_sync=0.0)
        assert adaptive_depth(mk(producer * scale), cap=cap) >= \
            adaptive_depth(mk(producer), cap=cap)

    def test_ratio_is_the_steady_state_depth(self):
        """Producer 3x slower than consumer -> exactly 3 in flight."""
        times = StageTimes(t_sample_cpu=1.0, t_sample_accel=0.0,
                           t_load=1.0, t_transfer=1.0,
                           t_train_cpu=1.0, t_train_accel=0.0,
                           t_sync=0.0)
        assert adaptive_depth(times, cap=8) == 3

    def test_degenerate_times(self):
        zero = StageTimes(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert adaptive_depth(zero, cap=8) == 1
        free_train = StageTimes(1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        assert adaptive_depth(free_train, cap=8) == 8

    def test_ratio_overflow_clamps_to_cap(self):
        """Finite producer over a denormal consumer overflows the
        ratio to inf; the policy must clamp to the cap, not raise
        OverflowError from ceil (regression: hypothesis found this)."""
        times = StageTimes(t_sample_cpu=0.0, t_sample_accel=0.0,
                           t_load=299.0, t_transfer=0.0,
                           t_train_cpu=1.66e-306,
                           t_train_accel=0.0, t_sync=0.0)
        assert adaptive_depth(times, cap=8) == 8

    def test_invalid_bounds_rejected(self):
        times = StageTimes(1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(ProtocolError):
            adaptive_depth(times, cap=0)
        with pytest.raises(ProtocolError):
            adaptive_depth(times, cap=2, floor=4)


class TestLivePipelineBounds:
    """The running backend honors the policy bounds end-to-end."""

    @pytest.fixture()
    def drm_session(self, tiny_ds, fpga_platform):
        cfg = TrainingConfig(model="sage", minibatch_size=32,
                             fanouts=(4, 3), hidden_dim=16,
                             learning_rate=0.05, seed=11)
        return TrainingSession(
            tiny_ds, cfg,
            SystemConfig(hybrid=True, drm=True, prefetch=True),
            fpga_platform, profile_probes=2)

    def test_depth_trajectory_stays_within_bounds(self, drm_session):
        cap = 3
        backend = PipelinedBackend(drm_session, max_depth=cap,
                                   timeout_s=30)
        per_epoch = drm_session.iterations_per_epoch()
        rep = backend.run(per_epoch + 2)   # roll into a second epoch
        # A timing+prefetch session seeds its first window from the
        # floor (no realized signal yet), not the configured depth.
        assert rep.depth_history[0] == (0, 1)
        for _, depth in rep.depth_history:
            assert 1 <= depth <= cap
        # The adaptive policy actually ran (timing plane present).
        assert len(rep.stage_history) == rep.iterations

    def test_no_stage_starves_while_work_remains(self, drm_session):
        """Occupancy > 0 on every stage whenever work remains: each
        stage buffer saw at least one item in flight, and every
        dispatched item reached the train stage (none lost, none
        stuck)."""
        backend = PipelinedBackend(drm_session, timeout_s=30)
        rep = backend.run_epoch()
        n = drm_session.num_trainers
        assert rep.iterations >= 2
        for stage, stats in rep.stage_stats.items():
            assert stats.items == rep.iterations * n, \
                f"stage {stage} lost items"
            assert stats.high_water >= 1, f"stage {stage} starved"
        # All buffers drained: occupancy sampling ends at zero items
        # in flight, i.e. gets == puts stage-wise.
        train = rep.stage_stats["train"]
        assert train.items == rep.iterations * n

    def test_fixed_depth_without_timing_plane(self, tiny_ds):
        """Platform-less sessions have no stage times to adapt from:
        the depth trajectory is exactly the session's window."""
        cfg = TrainingConfig(model="sage", minibatch_size=32,
                             fanouts=(4, 3), hidden_dim=16,
                             learning_rate=0.05, seed=11)
        session = TrainingSession(
            tiny_ds, cfg,
            SystemConfig(hybrid=True, drm=False, prefetch=True,
                         prefetch_depth=3),
            num_trainers=2)
        rep = PipelinedBackend(session, timeout_s=30).run(3)
        assert rep.depth_history == [(0, 3)]


class TestTrainingLanes:
    """``pipelined`` trains an iteration's batches on lanes — the
    caller's thread plus ``pipeline-train<k>`` helpers — while the
    synchronize tail still sees the answers in trainer order."""

    #: Every ``train_minibatch`` sleeps this long on top of its work.
    SLEEP_S = 0.2

    @pytest.mark.skipif(usable_cores() < 2,
                        reason="one usable core: a single lane")
    def test_lanes_overlap_and_keep_trainer_order(self, tiny_ds,
                                                  monkeypatch):
        cfg = TrainingConfig(model="sage", minibatch_size=16,
                             fanouts=(4, 3), hidden_dim=16,
                             learning_rate=0.05, seed=11)
        session = TrainingSession(tiny_ds, cfg, SystemConfig(drm=False),
                                  num_trainers=3)
        assert session.iterations_per_epoch() >= 4
        backend = PipelinedBackend(session, timeout_s=30)
        threads = set()

        def slowed(idx, train):
            def run(*args):
                threads.add(threading.current_thread().name)
                time.sleep(self.SLEEP_S)
                # Mark the answer with its trainer's index.
                return dataclasses.replace(train(*args), loss=float(idx))
            return run

        for idx, trainer in enumerate(session.trainers):
            monkeypatch.setattr(trainer, "train_minibatch",
                                slowed(idx, trainer.train_minibatch))
        ended, orders = [], []
        real_end = backend.end_iteration

        def spy(it, sizes, answers, *args, **kwargs):
            ended.append(time.perf_counter())
            orders.append([a.loss for a in answers])
            return real_end(it, sizes, answers, *args, **kwargs)

        monkeypatch.setattr(backend, "end_iteration", spy)
        rep = backend.run(4)
        assert rep.replicas_consistent
        assert orders == [[0.0, 1.0, 2.0]] * 4
        # Steady state: iteration i's wall time is the gap between the
        # synchronize tails of i - 1 and i.
        serial = len(session.trainers) * self.SLEEP_S
        gaps = np.diff(ended)
        assert gaps.max() < 0.75 * serial, gaps
        assert 2 <= len(threads) <= min(3, usable_cores()), threads


class TestInlineFeed:
    """``virtual``'s thread-less feed hands out exactly the item asked
    for, or refuses."""

    def test_take_out_of_step_is_protocol_error(self, tiny_ds,
                                                small_cfg):
        session = TrainingSession(tiny_ds, small_cfg,
                                  SystemConfig(drm=False),
                                  num_trainers=2)
        backend = VirtualTimeBackend(session)
        feed = InlineFeed(backend, 1, 1, RunReport(iterations=1), [])
        assert feed.take(0, 0).it == 0
        with pytest.raises(ProtocolError, match="out of step"):
            feed.take(0, 0)   # trainer 1's item is next
        feed = InlineFeed(backend, 1, 1, RunReport(iterations=1), [])
        with pytest.raises(ProtocolError, match="out of step"):
            feed.take(0, 1)   # iteration 0's item is next
        feed.take(1, 0)
        with pytest.raises(ProtocolError, match="out of step"):
            feed.take(0, 1)   # the feed ran dry
