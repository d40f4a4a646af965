"""Failure-injection tests: the system must fail fast and loudly, never
hang or silently corrupt state."""

import inspect
import threading
import time

import numpy as np
import pytest

from backend_conformance import threaded_backend
from repro.config import SystemConfig, TrainingConfig
from repro.errors import (
    ProtocolError,
    ReproError,
    ShapeError,
    StageTimeoutError,
)
from repro.nn.models import build_model
from repro.runtime import TrainingSession, build_backend, get_backend
from repro.runtime.backends import pipelined
from repro.runtime.prefetch import PrefetchBuffer
from repro.runtime.synchronizer import GradientSynchronizer

#: The presets of the in-process driver.
IN_PROCESS = ("virtual", "threaded", "pipelined")


def _in_process(name, dataset, cfg, timeout_s):
    """``timeout_s`` goes only to a preset that has a handoff to watch
    (the thread-less ``virtual`` takes no knob)."""
    session = TrainingSession(dataset, cfg, SystemConfig(drm=False),
                              num_trainers=2)
    params = inspect.signature(get_backend(name)).parameters
    knobs = {"timeout_s": timeout_s} if "timeout_s" in params else {}
    return build_backend(name, session, **knobs)


def _feed_threads() -> list[str]:
    return [t.name for t in threading.enumerate()
            if t.name.startswith(("producer", "lane"))]


class TestInProcessFaults:
    """One failure contract for every preset of the in-process driver:
    the original exception surfaces in ``run()`` — never a deadlock,
    never the close it caused — and no feed thread outlives the run."""

    @pytest.mark.parametrize("name", IN_PROCESS)
    def test_trainer_exception_propagates(self, name, tiny_ds,
                                          small_cfg):
        backend = _in_process(name, tiny_ds, small_cfg, timeout_s=10)
        # Sabotage one replica so forward raises a shape error.
        bad = backend.session.trainers[1].model
        bad.layers[0].linear.W = np.zeros((3, 3))
        with pytest.raises((ReproError, ValueError)):
            backend.run(3)
        assert _feed_threads() == []

    @pytest.mark.parametrize("name", IN_PROCESS)
    def test_sample_stage_error_propagates_and_joins_threads(
            self, name, tiny_ds, small_cfg):
        backend = _in_process(name, tiny_ds, small_cfg, timeout_s=10)
        backend.session.sampler.sample = None   # sabotage the sampler
        with pytest.raises(TypeError):
            backend.run(2)
        assert _feed_threads() == []

    @pytest.mark.parametrize("name", IN_PROCESS)
    def test_interrupt_in_all_reduce_is_prompt_and_reusable(
            self, name, tiny_ds, small_cfg):
        """Ctrl-C inside the all-reduce of iteration 1 reaches the
        caller well inside a second (the watchdog is 30 s: nothing may
        wait it out), leaves no feed thread, and the same backend then
        runs again."""
        backend = _in_process(name, tiny_ds, small_cfg, timeout_s=30)
        sync = backend.session.synchronizer
        all_reduce = sync.all_reduce
        raised_at = []

        def interrupted(sizes, iteration=None):
            if iteration == 1:
                raised_at.append(time.perf_counter())
                raise KeyboardInterrupt
            return all_reduce(sizes, iteration)

        sync.all_reduce = interrupted
        with pytest.raises(KeyboardInterrupt):
            backend.run(3)
        assert time.perf_counter() - raised_at[0] < 1.0
        assert _feed_threads() == []

        del sync.all_reduce
        rep = backend.run(2)
        assert len(rep.losses) == 2 and rep.replicas_consistent


class LaneFault(RuntimeError):
    """What a sabotaged trainer or load raises on a helper lane."""


#: The in-process presets that train on helper lanes.
LANED = ("threaded", "pipelined")


class TestTrainingLaneFaults:
    """The helper training lanes fail like the rest of their feed, on
    every preset that has them: the trainer's (or the load's) own
    exception, or a typed timeout within two watchdogs; no feed thread
    survives, and the same backend runs again. The lane count is a
    host property; these tests pin it at three so the helpers exist on
    any host."""

    @pytest.fixture(params=LANED)
    def backend(self, request, tiny_ds, monkeypatch):
        monkeypatch.setattr(pipelined, "usable_cores", lambda: 3)
        cfg = TrainingConfig(model="sage", minibatch_size=16,
                             fanouts=(4, 3), hidden_dim=16,
                             learning_rate=0.05, seed=11)
        session = TrainingSession(tiny_ds, cfg, SystemConfig(drm=False),
                                  num_trainers=3)
        assert session.iterations_per_epoch() >= 3
        return build_backend(request.param, session, timeout_s=1.0)

    @staticmethod
    def _sabotage(backend, monkeypatch, fault, on_load=False):
        """From iteration 2 on, a call that lands on a helper lane runs
        ``fault()`` first: a trainer's training step, or with
        ``on_load`` the session's feature load. Every batch takes
        50 ms, so the helpers get work."""
        def faulty(step, after):
            calls = []

            def run(*args):
                calls.append(None)
                if len(calls) > after and threading.current_thread() \
                        .name.startswith("lane"):
                    fault()
                return step(*args)
            return run

        def slowed(train):
            def run(*args):
                time.sleep(0.05)
                return train(*args)
            return run

        session = backend.session
        for trainer in session.trainers:
            train = slowed(trainer.train_minibatch)
            monkeypatch.setattr(trainer, "train_minibatch",
                                train if on_load else faulty(train, 2))
        if on_load:
            monkeypatch.setattr(session, "load_features", faulty(
                session.load_features, 2 * len(session.trainers)))

    def _reusable(self, backend, monkeypatch):
        assert _feed_threads() == []
        monkeypatch.undo()
        rep = backend.run_epoch()
        assert len(rep.losses) == backend.session.iterations_per_epoch()
        assert rep.replicas_consistent

    def test_helper_exception_propagates_unwrapped(self, backend,
                                                   monkeypatch):
        def fault():
            raise LaneFault("iteration 2")

        self._sabotage(backend, monkeypatch, fault)
        with pytest.raises(LaneFault) as info:
            backend.run(4)
        assert type(info.value) is LaneFault
        self._reusable(backend, monkeypatch)

    def test_helper_load_exception_propagates_unwrapped(self, backend,
                                                        monkeypatch):
        """The feature load runs on the lane that trains the batch: a
        load that raises there surfaces as itself."""
        def fault():
            raise LaneFault("load")

        self._sabotage(backend, monkeypatch, fault, on_load=True)
        with pytest.raises(LaneFault) as info:
            backend.run(4)
        assert type(info.value) is LaneFault
        self._reusable(backend, monkeypatch)

    def test_thread_that_fails_to_start_leaks_no_sibling(self, backend,
                                                         monkeypatch):
        """``lane1`` fails to start after ``producer`` started: the
        start's own error surfaces, the producer is closed and joined
        rather than left drawing from the session's sampler stream
        until its put times out, and the same backend runs again."""
        real_start = threading.Thread.start

        def start(thread):
            if thread.name == "lane1":
                raise LaneFault("lane1 did not start")
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        with pytest.raises(LaneFault, match="lane1"):
            backend.run(4)
        self._reusable(backend, monkeypatch)

    def test_wedged_lane_times_out_within_two_watchdogs(self, backend,
                                                        monkeypatch):
        wedged = []

        def fault():
            if not wedged:
                wedged.append(time.perf_counter())
                time.sleep(1.5 * backend.timeout_s)

        self._sabotage(backend, monkeypatch, fault)
        with pytest.raises(StageTimeoutError):
            backend.run(4)
        assert time.perf_counter() - wedged[0] < 2 * backend.timeout_s
        self._reusable(backend, monkeypatch)


class TestThreadedFaults:
    def test_watchdog_timeout_configured(self, tiny_ds, small_cfg):
        """Timeouts are plumbed; a tiny timeout may trip on slow CI but
        never hang (the wait loops all take the timeout)."""
        ex = threaded_backend(tiny_ds, small_cfg, num_trainers=1,
                              timeout_s=15)
        rep = ex.run(2)   # should complete comfortably
        assert len(rep.losses) == 2


class TestPrefetchFaults:
    def test_get_timeout_raises(self):
        buf = PrefetchBuffer(1)
        with pytest.raises(ProtocolError):
            buf.get(timeout=0.05)

    def test_producer_blocked_by_closed_consumer(self):
        buf = PrefetchBuffer(1)
        buf.put("a")

        def close_soon():
            buf.close()

        t = threading.Timer(0.05, close_soon)
        t.start()
        with pytest.raises(ProtocolError):
            buf.put("b", timeout=5)
        t.join()


class TestSynchronizerFaults:
    def test_diverged_replica_detected(self):
        models = [build_model("gcn", (4, 2), seed=0) for _ in range(2)]
        sync = GradientSynchronizer(models)
        models[1].layers[0].linear.W += 1.0
        assert not sync.replicas_consistent()

    def test_allreduce_with_wrong_grad_shape(self):
        models = [build_model("gcn", (4, 2), seed=0) for _ in range(2)]
        sync = GradientSynchronizer(models)
        with pytest.raises(ShapeError):
            models[0].set_flat_grads(np.zeros(3))


class TestConfigFaults:
    def test_system_rejects_inconsistent_flags(self):
        with pytest.raises(ReproError):
            SystemConfig(hybrid=False, drm=True)

    def test_training_rejects_nonsense(self):
        with pytest.raises(ReproError):
            TrainingConfig(fanouts=(0,))


class TestHybridFaults:
    def test_split_mutation_validated(self, tiny_ds, small_cfg,
                                      fpga_platform):
        from repro.runtime import TrainingSession
        from repro.perfmodel.model import WorkloadSplit
        session = TrainingSession(tiny_ds, small_cfg,
                                  platform=fpga_platform,
                                  profile_probes=2)
        # A split with the wrong accelerator arity must be rejected at
        # the next stage-time computation.
        session.split = WorkloadSplit(cpu_targets=8,
                                     accel_targets=(32,),
                                     sample_threads=64,
                                     load_threads=64,
                                     train_threads=64)
        with pytest.raises(ReproError):
            session.perfmodel.stage_times(session.split)
