"""Pipelined-backend concurrency properties.

* the **live pipeline** holds the session's window and every stage
  shows real occupancy whenever work remained (no producer stage ever
  idles the train stage out of existence);
* the **training lanes** train an iteration's batches side by side,
  on at most ``min(trainers, usable cores)`` threads, and still hand
  the synchronize tail its answers in trainer order;
* the **lanes load**: no item a feed hands over carries feature rows,
  and every feature load runs on the caller's thread or a lane.
"""

import dataclasses
import pathlib
import sys
import threading
import time

import numpy as np
import pytest

from repro.config import SystemConfig, TrainingConfig
from repro.errors import ProtocolError
from repro.runtime import (
    PipelinedBackend,
    TrainingSession,
    VirtualTimeBackend,
)
from repro.runtime import build_backend
from repro.runtime.backends import pipelined
from repro.runtime.backends.pipelined import InlineFeed, usable_cores
from repro.runtime.backends.report import RunReport

# The conformance kit's helper, shared rather than copied (the same
# directory pytest puts on the path for the integration suite).
sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "integration"))
from backend_conformance import spy_feeds  # noqa: E402


class TestLivePipelineBounds:
    """The running backend holds its window end to end."""

    @pytest.fixture()
    def drm_session(self, tiny_ds, fpga_platform):
        cfg = TrainingConfig(model="sage", minibatch_size=32,
                             fanouts=(4, 3), hidden_dim=16,
                             learning_rate=0.05, seed=11)
        return TrainingSession(
            tiny_ds, cfg,
            SystemConfig(hybrid=True, drm=True, prefetch=True),
            fpga_platform, profile_probes=2)

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

    def test_fixed_depth_without_timing_plane(self, tiny_ds,
                                              monkeypatch):
        """Every stage buffer's capacity is exactly the session's
        window."""
        cfg = TrainingConfig(model="sage", minibatch_size=32,
                             fanouts=(4, 3), hidden_dim=16,
                             learning_rate=0.05, seed=11)
        session = TrainingSession(
            tiny_ds, cfg,
            SystemConfig(hybrid=True, drm=False, prefetch=True,
                         prefetch_depth=3),
            num_trainers=2)
        backend = PipelinedBackend(session, timeout_s=30)
        feeds = spy_feeds(backend, monkeypatch)
        backend.run(3)
        assert {b.depth for b in feeds[0].buffers} == {3}


class TestTrainingLanes:
    """``pipelined`` trains an iteration's batches on lanes — the
    caller's thread plus ``lane<k>`` helpers — while the
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


class TestLanesLoad:
    """No feed buffer holds feature rows: the lane that trains a batch
    loads it. The lane count is a host property; pinned at three here
    so the helper lanes exist on any host."""

    @pytest.mark.parametrize("name", ["threaded", "pipelined"])
    def test_items_carry_no_rows_and_lanes_load(self, name, tiny_ds,
                                                fpga_platform,
                                                monkeypatch):
        monkeypatch.setattr(pipelined, "usable_cores", lambda: 3)
        cfg = TrainingConfig(model="sage", minibatch_size=32,
                             fanouts=(4, 3), hidden_dim=16,
                             learning_rate=0.05, seed=11)
        session = TrainingSession(
            tiny_ds, cfg,
            SystemConfig(hybrid=True, drm=True, prefetch=True,
                         transfer_precision="int8"),
            fpga_platform, profile_probes=2)
        backend = build_backend(name, session, timeout_s=30)
        caller = threading.current_thread()
        taken, loaders = [], []
        train_one, load = backend._train_one, session.pipeline.load_codes

        def spy_train(idx, item):
            taken.append(getattr(item, "x0", None))
            return train_one(idx, item)

        def spy_load(mb, kind):
            loaders.append(threading.current_thread())
            return load(mb, kind)

        monkeypatch.setattr(backend, "_train_one", spy_train)
        monkeypatch.setattr(session.pipeline, "load_codes", spy_load)
        rep = backend.run_epoch()
        assert len(taken) == rep.iterations * session.num_trainers
        assert all(x0 is None for x0 in taken)
        assert loaders
        assert all(t is caller or t.name.startswith("lane")
                   for t in loaders), {t.name for t in loaders}


class TestFirstItemOnTheCaller:
    """The caller's thread takes each iteration's first item before it
    releases the helper lanes, so trainer 0 — the CPU trainer, whose
    batch DRM grows — always trains on it, and each lane's heap holds
    the high water of its own batches. Pinned with more lanes than
    trainers need on a two-core host."""

    @pytest.mark.parametrize("name", ["threaded", "pipelined"])
    def test_trainer_zero_trains_on_the_caller(self, name, tiny_ds,
                                               monkeypatch):
        monkeypatch.setattr(pipelined, "usable_cores", lambda: 3)
        cfg = TrainingConfig(model="sage", minibatch_size=16,
                             fanouts=(4, 3), hidden_dim=16,
                             learning_rate=0.05, seed=11)
        session = TrainingSession(tiny_ds, cfg, SystemConfig(drm=False),
                                  num_trainers=3)
        backend = build_backend(name, session, timeout_s=30)
        caller = threading.current_thread()
        lanes = {idx: set() for idx in range(3)}
        train_one = backend._train_one

        def spy(idx, item):
            lanes[idx].add(threading.current_thread())
            return train_one(idx, item)

        monkeypatch.setattr(backend, "_train_one", spy)
        rep = backend.run(12)
        assert rep.replicas_consistent
        assert lanes[0] == {caller}


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
