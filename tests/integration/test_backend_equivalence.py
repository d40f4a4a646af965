"""Backend equivalence: one runtime core, N execution strategies.

The refactor's central guarantee, now enforced through the reusable
conformance kit (``backend_conformance.py``): every registered execution
backend — live threads, worker processes, and any third-party backend
joining via ``register_backend`` — executes the *same*
:class:`TrainingSession` and :class:`BatchPlan` as the virtual-time
reference, so for identical seed/config it must produce bit-identical
per-iteration losses, identical DRM split trajectories, and identical
final replica parameters — including configurations that were
previously impossible off the virtual plane (hybrid CPU+accelerator
split, DRM re-balancing, quantized PCIe transfer, non-neighbor
samplers).
"""

import dataclasses
import glob
import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from backend_conformance import (
    CONFORMANCE_CASES,
    BACKEND_KWARGS,
    PROCESS_PRESETS,
    STRICT_TWINS,
    analytic_lookahead,
    assert_backend_conforms,
    assert_report_sections,
    assert_resumes_after_training_elsewhere,
    assert_reuse_invisible,
    assert_stage_seconds_run_scoped,
    assert_store_untouched_by_int8_run,
    assert_trains_in_store_dtype,
    assert_twin_identical,
    backend_tier,
    candidate_backends,
    estimator_idle,
    make_session,
    run_backend,
    spy_feeds,
    threaded_backend,
)
from repro.config import SystemConfig, TrainingConfig
from repro.graph.datasets import tiny_dataset
from repro.errors import ConfigError
from repro.runtime import (
    BACKENDS,
    PipelinedBackend,
    ProcessPipelinedBackend,
    ProcessPoolBackend,
    ProcessSamplingBackend,
    ShardedBackend,
    ThreadedBackend,
    TrainingSession,
    VirtualTimeBackend,
    available_backends,
    build_backend,
    get_backend,
    register_backend,
)
from repro.runtime.backends import pipelined
from repro.runtime.backends.process import WorkerReplica
from repro.runtime.resctl import OnlineEstimator

_CASE_IDS = [c.id for c in CONFORMANCE_CASES]


@pytest.fixture()
def eq_cfg():
    return TrainingConfig(model="sage", minibatch_size=32,
                          fanouts=(4, 3), hidden_dim=16,
                          learning_rate=0.05, seed=11)


def _param_sets(trainers):
    return [t.model.get_flat_params() for t in trainers]


def _with_window(case, depth):
    """``case`` with the session's look-ahead window set to ``depth``."""
    return dataclasses.replace(case, sys_cfg_kwargs={
        **case.sys_cfg_kwargs, "prefetch_depth": depth})


class LaggingReplica(WorkerReplica):
    """Worker 0 is slow to apply every averaged update."""

    def apply(self):
        if self.spec.index == 0:
            time.sleep(0.005)
        super().apply()


class TestBackendConformance:
    """Every registered backend passes the full parity matrix.

    Parametrized over ``available_backends()`` (minus the virtual
    reference) — a backend registered before collection inherits this
    suite without any test changes.
    """

    @pytest.mark.parametrize("case", CONFORMANCE_CASES, ids=_CASE_IDS)
    @pytest.mark.parametrize("backend", candidate_backends())
    def test_backend_matches_virtual_reference(self, backend, case,
                                               tiny_ds):
        assert_backend_conforms(backend, case, tiny_ds)

    def test_threaded_matches_virtual_reference_on_one_core(
            self, tiny_ds, monkeypatch):
        """On a one-core host ``threaded`` trains on the caller's
        thread alone and still matches the reference bit for bit on
        the flagship stack (hybrid + DRM + int8)."""
        monkeypatch.setattr(pipelined, "usable_cores", lambda: 1)
        assert_backend_conforms("threaded", CONFORMANCE_CASES[0], tiny_ds)

    def test_third_party_backend_inherits_suite(self, tiny_ds):
        """A backend registered at runtime runs the same matrix — the
        kit reads the live registry, not a hardcoded pair."""

        @register_backend
        class MirrorBackend(VirtualTimeBackend):
            """Trivially conformant: virtual execution under a new name."""
            name = "mirror"

        try:
            assert "mirror" in candidate_backends()
            assert_backend_conforms("mirror", CONFORMANCE_CASES[0],
                                    tiny_ds)
        finally:
            BACKENDS.pop("mirror", None)

    @pytest.mark.parametrize("backend", available_backends())
    def test_report_sections_present_only_where_produced(
            self, backend, tiny_ds):
        """Coverage evidence is ``None`` exactly on the planes that do
        not produce it; accounting sections are always containers."""
        _, rep = run_backend(backend, CONFORMANCE_CASES[2], tiny_ds)
        assert_report_sections(backend, rep)

    @pytest.mark.parametrize("backend", available_backends())
    def test_stage_seconds_are_scoped_to_their_run(self, backend,
                                                   tiny_ds):
        """Every plane bills each trained batch's stage seconds to the
        report of the run that trained it, a kept backend's included."""
        assert_stage_seconds_run_scoped(backend, CONFORMANCE_CASES[1],
                                        tiny_ds)

    @pytest.mark.parametrize("backend", available_backends())
    def test_trains_in_the_feature_store_dtype(self, backend, tiny_ds):
        """Parameters, gradients and the shm slab are float32, and no
        gather widens the store's rows."""
        assert_trains_in_store_dtype(backend, tiny_ds)

    @pytest.mark.parametrize("backend", available_backends())
    def test_transfer_never_writes_the_feature_store(self, backend,
                                                     tiny_ds):
        """The in-place transfer only ever quantizes a fresh gather:
        an int8 run leaves the feature store bit-identical."""
        assert_store_untouched_by_int8_run(backend, tiny_ds)

    def test_sharded_lookahead_preset_composes_with_no_new_code(
            self, tiny_ds):
        """The composition proof: partition-mapped dealing × the
        shard-aware replica × the calibrated look-ahead window is one
        more *declaration* over the process
        driver's seams — registered here, in the test, through the
        third-party path — and it passes the statistical tier on every
        case, cross-node ownership assertion included."""
        from repro.graph.partition import bfs_partition
        from repro.runtime.backends.process import ProcessBackend
        from repro.runtime.backends.sharded import (
            ShardedReplica,
            ShardPlan,
        )

        @register_backend
        class ShardedLookahead(ProcessBackend):
            name = "sharded_lookahead"
            conformance_tier = "statistical"
            replica_cls = ShardedReplica

            def __init__(self, session, timeout_s=120.0,
                         mp_context=None):
                super().__init__(session, timeout_s, mp_context)
                self.estimator = OnlineEstimator()
                n = session.num_trainers
                parts = bfs_partition(session.dataset.graph, n, seed=0)
                self.work_source = ShardPlan(session.plan, parts, n)
                self.store_extras = dict(parts=parts)

        try:
            for case in CONFORMANCE_CASES:
                assert_backend_conforms("sharded_lookahead", case,
                                        tiny_ds)
            _, rep = run_backend(
                "sharded_lookahead", _with_window(CONFORMANCE_CASES[0], 3),
                tiny_ds, configure=analytic_lookahead)
            assert rep.shard_parts is not None and rep.shard_io
            assert max(n for n, _ in rep.lookahead_history) > 1
        finally:
            BACKENDS.pop("sharded_lookahead", None)

    @pytest.mark.parametrize("backend", PROCESS_PRESETS)
    def test_reusing_a_backend_is_numerically_invisible(self, backend,
                                                        tiny_ds):
        """Three epochs on one backend == three epochs on three fresh
        backends, bit for bit, on every process preset: the
        backend-lifetime worker pool re-derives its per-run state at
        each ``init``, and start-up is paid once."""
        assert_reuse_invisible(backend, CONFORMANCE_CASES[1], tiny_ds)

    @pytest.mark.parametrize("case", CONFORMANCE_CASES[:2],
                             ids=_CASE_IDS[:2])
    def test_kept_process_backend_resumes_after_training_elsewhere(
            self, case, tiny_ds):
        assert_resumes_after_training_elsewhere("process", case,
                                                tiny_ds)

    @pytest.mark.parametrize("backend", available_backends())
    def test_overlapped_timing_run_reports_calibration(
            self, backend, tiny_ds):
        """A timing-plane run exposes the per-stage model-vs-realized
        calibration report exactly when its backend installs an
        estimator (``pipelined`` and ``process_pipelined``):
        corrections stay positive and finite, errors non-negative, and
        at least one stage accumulated observations. Every other plane
        leaves the section empty."""
        _, rep = run_backend(backend, CONFORMANCE_CASES[0], tiny_ds)
        assert rep.stage_history
        if backend not in ("pipelined", "process_pipelined"):
            assert rep.calibration == {}
            return
        assert rep.calibration, \
            f"{backend}: timing run produced no calibration report"
        total_obs = 0
        for stage, entry in rep.calibration.items():
            assert np.isfinite(entry["correction"])
            assert entry["correction"] > 0.0
            assert entry["observations"] >= 0
            total_obs += entry["observations"]
            if entry["error"] is not None:
                assert entry["error"] >= 0.0
        assert total_obs > 0

    def test_estimator_persists_across_runs(self, tiny_ds):
        """A backend's estimator outlives its runs: a second run on the
        same backend starts warm and keeps accumulating."""
        session = make_session(CONFORMANCE_CASES[0], tiny_ds)
        backend = build_backend("pipelined", session,
                                **BACKEND_KWARGS["pipelined"])
        estimator = backend.estimator
        first = backend.run_epoch(CONFORMANCE_CASES[0].max_iterations)
        assert estimator.is_warm()
        second = backend.run_epoch(CONFORMANCE_CASES[0].max_iterations)
        assert backend.estimator is estimator
        for stage, entry in first.calibration.items():
            assert second.calibration[stage]["observations"] > \
                entry["observations"]


class TestProcessBackend:
    """Process-pool specifics the generic matrix cannot see."""

    def test_runs_multiple_worker_processes(self, tiny_ds):
        session, report = run_backend("process", CONFORMANCE_CASES[0],
                                      tiny_ds)
        assert report.num_workers == session.num_trainers
        assert report.num_workers >= 2
        assert report.wall_time_s > 0

    def test_clean_shared_memory_teardown(self, tiny_ds, eq_cfg):
        """No segment survives the backend — here one that was never
        closed, only dropped."""
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        pattern = "/dev/shm/repro_shm_*"
        before = set(glob.glob(pattern))
        session = TrainingSession(
            tiny_ds, eq_cfg,
            SystemConfig(hybrid=True, drm=False, prefetch=True),
            num_trainers=2)
        ProcessPoolBackend(session, timeout_s=60).run(2)
        assert set(glob.glob(pattern)) == before

    @pytest.mark.parametrize("case", CONFORMANCE_CASES[:2],
                             ids=_CASE_IDS[:2])
    def test_strict_matrix_covers_idle_workers(self, case, tiny_ds):
        """The strict matrix is also the gradient slab's idle-worker
        proof on this plane (an idle worker answers with a token, so it
        can never lag into a later iteration's average row) — as long
        as its cases keep dealing idle iterations: a quota-0 CPU
        trainer under hybrid + DRM, and the epoch tail."""
        _, rep = run_backend("process", case, tiny_ds)
        assert any(0 in sizes for sizes in rep.dealt_sizes)
        assert rep.replicas_consistent

    def test_teardown_survives_worker_failure(self, tiny_ds, eq_cfg):
        """A failing run still unlinks its segment (the finally path)."""
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        pattern = "/dev/shm/repro_shm_*"
        before = set(glob.glob(pattern))
        session = TrainingSession(
            tiny_ds, eq_cfg,
            SystemConfig(hybrid=True, drm=False, prefetch=True),
            num_trainers=2)
        backend = ProcessPoolBackend(session, timeout_s=60)
        # Sabotage the plan so the first iteration raises in the
        # parent after workers and the store are already up.
        session.plan.counts_fn = None
        with pytest.raises(TypeError):
            backend.run(1)
        assert set(glob.glob(pattern)) == before

    def test_interrupt_closes_the_pool(self, tiny_ds, eq_cfg):
        """Ctrl-C in the parent mid-run is a failed run like any other:
        the pool is gone before the interrupt propagates."""
        session = TrainingSession(
            tiny_ds, eq_cfg,
            SystemConfig(hybrid=True, drm=False, prefetch=True),
            num_trainers=2)
        backend = ProcessPoolBackend(session, timeout_s=60)
        backend.run(1)
        assert mp.active_children()

        def interrupted():
            raise KeyboardInterrupt

        session.plan.counts_fn = interrupted
        with pytest.raises(KeyboardInterrupt):
            backend.run(1)
        assert not mp.active_children()
        assert not glob.glob("/dev/shm/repro_shm_*")

    def test_killed_worker_fails_typed_then_backend_reopens(
            self, tiny_ds, eq_cfg):
        """The failure → reuse contract: SIGKILL a worker mid-run →
        typed ``WorkerError`` well inside ``timeout_s``, no segment, no
        live child, never a half-dead pool; the next ``run()`` on the
        *same* backend opens a fresh pool and the session is still
        bit-identical to a virtual-only reference.

        The kill lands while the parent plans the failing run's first
        iteration and takes the *last* worker, so what the failed run
        consumed is exact — one epoch permutation, no update, and no
        sampler draw (a failed run hands no stream back to the
        session) — and the reference replays just that."""
        from repro.errors import WorkerError
        sys_cfg = SystemConfig(hybrid=True, drm=False, prefetch=True)

        sv = TrainingSession(tiny_ds, eq_cfg, sys_cfg, num_trainers=2)
        vb = VirtualTimeBackend(sv)
        first_v = vb.run_epoch(max_iterations=2)
        for _ in sv.work_source.iterate(1):
            pass
        second_v = vb.run_epoch(max_iterations=2)

        sp = TrainingSession(tiny_ds, eq_cfg, sys_cfg, num_trainers=2)
        timeout_s = 30.0
        backend = ProcessPoolBackend(sp, timeout_s=timeout_s)
        first_p = backend.run(2)
        victim_name = f"repro-{sp.trainers[-1].name}"

        counts = sp.plan.counts_fn

        def counts_after_kill():
            sp.plan.counts_fn = counts     # one shot
            victim, = [p for p in mp.active_children()
                       if p.name == victim_name]
            os.kill(victim.pid, signal.SIGKILL)
            return counts()

        sp.plan.counts_fn = counts_after_kill
        start = time.perf_counter()
        with pytest.raises(WorkerError):
            backend.run(3)
        assert time.perf_counter() - start < timeout_s / 2
        assert not mp.active_children()
        assert not glob.glob("/dev/shm/repro_shm_*")

        second_p = backend.run(2)
        backend.close()
        np.testing.assert_array_equal(first_v.losses, first_p.losses)
        np.testing.assert_array_equal(second_v.losses, second_p.losses)
        assert second_p.replicas_consistent
        for tv, tp in zip(sv.trainers, sp.trainers):
            np.testing.assert_array_equal(tv.model.get_flat_params(),
                                          tp.model.get_flat_params())

    def test_resumed_session_continues_bit_identically(self, tiny_ds,
                                                       eq_cfg):
        """A second run() on an already-trained session must continue
        from the trained weights (workers sync to the parent's current
        parameters at startup), matching the virtual plane's
        continuation — not silently restart from the init seed."""
        sys_cfg = SystemConfig(hybrid=True, drm=False, prefetch=True)

        sv = TrainingSession(tiny_ds, eq_cfg, sys_cfg, num_trainers=2)
        vb = VirtualTimeBackend(sv)
        first_v = vb.run_epoch(max_iterations=2)
        second_v = vb.run_epoch(max_iterations=2)

        sp = TrainingSession(tiny_ds, eq_cfg, sys_cfg, num_trainers=2)
        pb = ProcessPoolBackend(sp, timeout_s=60)
        first_p = pb.run(2)
        second_p = pb.run(2)

        np.testing.assert_array_equal(first_v.losses, first_p.losses)
        np.testing.assert_array_equal(second_v.losses, second_p.losses)
        assert second_p.replicas_consistent
        for tv, tp in zip(sv.trainers, sp.trainers):
            np.testing.assert_array_equal(tv.model.get_flat_params(),
                                          tp.model.get_flat_params())

    def test_invalid_iterations_rejected(self, tiny_ds, eq_cfg):
        from repro.errors import ProtocolError
        session = TrainingSession(
            tiny_ds, eq_cfg,
            SystemConfig(hybrid=True, drm=False, prefetch=True),
            num_trainers=2)
        with pytest.raises(ProtocolError):
            ProcessPoolBackend(session).run(0)


class TestWorkerSamplingPlanes:
    """Properties shared by every worker-side-sampling plane (the
    ``process_sampling`` backend, dealing ``prefetch_depth`` ahead
    under prefetch, and ``process_pipelined``, which adds a calibrated
    DRM step), parametrized over both so a fix to
    one assertion can never silently miss the sibling plane: shard
    partitioning, seeded determinism, resume, epoch rollover, shm
    teardown, and infra-error typing."""

    @pytest.fixture(params=[ProcessSamplingBackend,
                            ProcessPipelinedBackend],
                    ids=["process_sampling", "process_pipelined"])
    def backend_cls(self, request):
        return request.param

    def _session(self, tiny_ds, eq_cfg, n=3):
        return TrainingSession(
            tiny_ds, eq_cfg,
            SystemConfig(hybrid=True, drm=False, prefetch=True),
            num_trainers=n)

    def test_worker_shards_partition_epoch(self, backend_cls, tiny_ds,
                                           eq_cfg):
        """Union of worker-trained targets == the epoch target set,
        with per-worker shards mutually disjoint (no double-training)."""
        session = self._session(tiny_ds, eq_cfg)
        rep = backend_cls(session, timeout_s=60).run_epoch()
        assert len(rep.worker_targets) == session.num_trainers
        per_worker = [np.concatenate(ts) if ts else
                      np.empty(0, dtype=np.int64)
                      for ts in rep.worker_targets]
        union = np.concatenate(per_worker)
        assert np.unique(union).size == union.size
        np.testing.assert_array_equal(np.sort(union),
                                      tiny_ds.train_ids)
        assert session.plan.epochs_started == 1

    def test_deterministic_across_runs(self, backend_cls, tiny_ds,
                                       eq_cfg):
        """Same seed/config ⇒ bit-identical losses and parameters run
        to run — per-worker streams are seeded, not wall-clock (and
        overlap changes *when* work happens, never which draws are
        made)."""
        r1 = backend_cls(self._session(tiny_ds, eq_cfg),
                         timeout_s=60).run(3)
        r2 = backend_cls(self._session(tiny_ds, eq_cfg),
                         timeout_s=60).run(3)
        np.testing.assert_array_equal(r1.losses, r2.losses)
        np.testing.assert_array_equal(r1.accuracies, r2.accuracies)
        assert r1.total_edges == r2.total_edges

    def test_resumed_session_keeps_training_same_replicas(
            self, backend_cls, tiny_ds, eq_cfg):
        """Back-to-back run() calls continue from the trained weights
        (workers re-sync to the parent's current parameters)."""
        session = self._session(tiny_ds, eq_cfg, n=2)
        backend = backend_cls(session, timeout_s=60)
        first = backend.run(2)
        params_after_first = [t.model.get_flat_params().copy()
                              for t in session.trainers]
        second = backend.run(2)
        assert second.replicas_consistent
        for before, t in zip(params_after_first, session.trainers):
            assert not np.array_equal(before,
                                      t.model.get_flat_params())
        assert first.losses != second.losses

    def test_streams_continue_on_another_plane(self, backend_cls,
                                               tiny_ds, eq_cfg):
        """A run hands each trainer's stream position back to the
        session, so a virtual run after it continues where the workers
        stopped: one run here and one on the virtual plane equal two
        virtual runs bit for bit — losses, sampled edges, stream
        positions and parameters."""
        ref = self._session(tiny_ds, eq_cfg, n=2)
        vb = VirtualTimeBackend(ref)
        want = [vb.run_epoch(max_iterations=2) for _ in range(2)]

        session = self._session(tiny_ds, eq_cfg, n=2)
        with backend_cls(session, timeout_s=60) as backend:
            first = backend.run(2)
        second = VirtualTimeBackend(session).run_epoch(max_iterations=2)

        np.testing.assert_array_equal(want[0].losses, first.losses)
        np.testing.assert_array_equal(want[1].losses, second.losses)
        assert second.total_edges == want[1].total_edges
        assert [s.stream_state for s in session.samplers] == \
            [s.stream_state for s in ref.samplers]
        for tr, ts in zip(ref.trainers, session.trainers):
            np.testing.assert_array_equal(tr.model.get_flat_params(),
                                          ts.model.get_flat_params())

    def test_long_runs_roll_into_fresh_epochs(self, backend_cls,
                                              tiny_ds, eq_cfg):
        session = self._session(tiny_ds, eq_cfg, n=2)
        per_epoch = session.iterations_per_epoch()
        rep = backend_cls(session, timeout_s=60).run(per_epoch + 2)
        assert len(rep.losses) == per_epoch + 2
        assert session.plan.epochs_started == 2

    def test_clean_shared_memory_teardown(self, backend_cls, tiny_ds,
                                          eq_cfg):
        """No segment survives a backend that was dropped unclosed."""
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm on this platform")
        pattern = "/dev/shm/repro_shm_*"
        before = set(glob.glob(pattern))
        session = self._session(tiny_ds, eq_cfg, n=2)
        backend_cls(session, timeout_s=60).run(2)
        assert set(glob.glob(pattern)) == before

    def test_worker_failure_raises_typed_error(self, backend_cls,
                                               tiny_ds):
        """A crash inside a worker (here: an unknown sampler family at
        rebuild time) surfaces as the typed WorkerError — infra
        failures must be distinguishable from conformance failures in
        CI logs — and the pool that failed to open is torn down."""
        from repro.errors import WorkerError
        from repro.sampling import (
            SAMPLER_REGISTRY,
            NeighborSampler,
            register_sampler,
        )

        family = f"ephemeral-{backend_cls.name}"
        register_sampler(
            family,
            lambda graph, ids, c, fdim: NeighborSampler(
                graph, ids, c.fanouts, fdim, seed=c.seed))
        try:
            cfg = TrainingConfig(model="sage", minibatch_size=32,
                                 fanouts=(4, 3), hidden_dim=16,
                                 learning_rate=0.05, seed=11,
                                 sampler=family)
            session = TrainingSession(
                tiny_ds, cfg,
                SystemConfig(hybrid=True, drm=False, prefetch=True),
                num_trainers=2)
        finally:
            # Deregister before the workers spawn: their registries
            # (rebuilt at import) never see the family, so the rebuild
            # fails inside the worker process.
            SAMPLER_REGISTRY.pop(family, None)
        with pytest.raises(WorkerError):
            backend_cls(session, timeout_s=60).run(2)


class TestProcessSamplingBackend:
    """Worker-side-sampling specifics not shared with the fused plane
    (the shared matrix lives in TestWorkerSamplingPlanes)."""

    def _session(self, tiny_ds, eq_cfg, n=3):
        return TrainingSession(
            tiny_ds, eq_cfg,
            SystemConfig(hybrid=True, drm=False, prefetch=True),
            num_trainers=n)

    def test_worker_draws_match_the_lockstep_plane(self, tiny_ds,
                                                   eq_cfg):
        """Trainer ``t`` draws from stream ``t`` on every plane, so
        dealing the window ahead changes when a worker samples, never
        what it draws: without DRM this plane trains exactly the
        lock-step ``process`` plane's batches."""
        rp = ProcessPoolBackend(self._session(tiny_ds, eq_cfg),
                                timeout_s=60).run(3)
        rs = ProcessSamplingBackend(self._session(tiny_ds, eq_cfg),
                                    timeout_s=60).run(3)
        assert max(n for n, _ in rs.lookahead_history) > 1
        assert rs.total_edges == rp.total_edges
        np.testing.assert_array_equal(rs.losses, rp.losses)

    def test_lockstep_matches_virtual_under_drm(self, tiny_ds):
        """Without prefetch the window is 1, so DRM sees every
        iteration before the next one is dealt, and each worker draws
        its trainer's stream: on the flagship hybrid + DRM + int8 case
        this plane reproduces the virtual reference bit for bit."""
        flagship = CONFORMANCE_CASES[0]
        case = dataclasses.replace(flagship, sys_cfg_kwargs={
            **flagship.sys_cfg_kwargs, "prefetch": False})
        ref_session, ref = run_backend("virtual", case, tiny_ds)
        session, rep = run_backend("process_sampling", case, tiny_ds)
        assert len(rep.split_history) == rep.iterations
        assert max(n for n, _ in rep.lookahead_history) == 1
        assert_twin_identical("process_sampling vs virtual",
                              ref_session, ref, session, rep)
        assert rep.stage_history == ref.stage_history

    def _drm_session(self, tiny_ds, eq_cfg, gpu_platform, prefetch,
                     prefetch_depth=2):
        return TrainingSession(
            tiny_ds, eq_cfg,
            SystemConfig(hybrid=True, drm=True, prefetch=prefetch,
                         prefetch_depth=prefetch_depth,
                         transfer_precision="int8"),
            gpu_platform, profile_probes=2)

    @pytest.mark.parametrize("prefetch", [True, False],
                             ids=["prefetch-window3", "lock-step"])
    def test_drm_adjustments_lag_the_dealt_window(
            self, prefetch, tiny_ds, eq_cfg, gpu_platform):
        """The fused plane's lag pin, on this plane's fixed window. A
        shard is sliced with the split current when it is *dealt*.
        Under two-stage prefetch the window is ``prefetch_depth`` (3
        here), so the gpu platform's DRM move that lands on iteration
        3 cannot reach it: the first ``window + 1`` dealt iterations
        are the unadjusted plan. Without prefetch the plane is
        lock-step, and the move reaches the very next dealt
        iteration."""
        window, iterations = 3, 12
        session = self._drm_session(tiny_ds, eq_cfg, gpu_platform,
                                    prefetch, prefetch_depth=window)
        with ProcessSamplingBackend(session, timeout_s=60) as backend:
            rep = backend.run(iterations)
        assert max(n for n, _ in rep.lookahead_history) == \
            (window if prefetch else 1)

        ref = self._drm_session(tiny_ds, eq_cfg, gpu_platform, prefetch,
                                prefetch_depth=window)
        ref_sizes = [planned.batch_sizes
                     for _, planned in ref.plan.iterate(iterations)]
        moved = rep.split_history[window]
        assert moved != rep.split_history[0], "DRM never moved"
        moved_sizes = (moved.cpu_targets, *moved.accel_targets)
        assert moved_sizes != ref_sizes[window]
        if prefetch:
            assert rep.dealt_sizes[:window + 1] == ref_sizes[:window + 1]
        else:
            assert rep.dealt_sizes[:window] == ref_sizes[:window]
            assert rep.dealt_sizes[window] == moved_sizes
        assert [sum(s) for s in rep.dealt_sizes] == \
            [sum(s) for s in ref_sizes]

    @pytest.mark.parametrize("case", CONFORMANCE_CASES[:2],
                             ids=_CASE_IDS[:2])
    def test_one_average_row_suffices_at_prefetch_depth(self, case,
                                                        tiny_ds):
        """The fused plane's slab-race pin, on this plane's
        ``prefetch_depth`` window (the conformance matrix already runs
        the same cases unprovoked): idle workers in the mix and worker
        0 dawdling before every apply, yet the snapshot's bit-for-bit
        audit of worker parameters against the parent mirrors stays
        green."""
        class Lagging(ProcessSamplingBackend):
            replica_cls = LaggingReplica

        session = make_session(case, tiny_ds)
        with Lagging(session, timeout_s=60) as backend:
            rep = backend.run_epoch()
        depth = session.sys_cfg.prefetch_depth
        assert depth > 1
        assert any(0 in sizes for sizes in rep.dealt_sizes)
        assert max(n for n, _ in rep.lookahead_history) == depth
        assert rep.replicas_consistent

    def test_window_two_is_bit_identical_run_to_run(self, tiny_ds,
                                                    eq_cfg,
                                                    gpu_platform):
        """Dealing two ahead changes when a worker samples, never which
        draws it makes: two same-seed runs agree bit for bit — losses,
        DRM trajectory, worker-echoed targets and every parameter."""
        def run():
            session = self._drm_session(tiny_ds, eq_cfg, gpu_platform,
                                        prefetch=True)
            with ProcessSamplingBackend(session,
                                        timeout_s=60) as backend:
                rep = backend.run(2 * session.iterations_per_epoch())
            return session, rep

        (s1, r1), (s2, r2) = run(), run()
        assert max(n for n, _ in r1.lookahead_history) == 2
        np.testing.assert_array_equal(r1.losses, r2.losses)
        assert r1.split_history == r2.split_history
        for w1, w2 in zip(r1.worker_targets, r2.worker_targets,
                          strict=True):
            assert len(w1) == len(w2)
            for t1, t2 in zip(w1, w2):
                np.testing.assert_array_equal(t1, t2)
        for t1, t2 in zip(s1.trainers, s2.trainers):
            np.testing.assert_array_equal(t1.model.get_flat_params(),
                                          t2.model.get_flat_params())


class TestThreadedBackend:
    def test_invalid_construction_rejected(self, tiny_ds, eq_cfg):
        from repro.errors import ProtocolError
        session = TrainingSession(
            tiny_ds, eq_cfg,
            SystemConfig(hybrid=True, drm=False, prefetch=True),
            num_trainers=2)
        for timeout_s in (0, -1.0):
            with pytest.raises(ProtocolError, match="timeout_s"):
                ThreadedBackend(session, timeout_s=timeout_s)
        with pytest.raises(ProtocolError):
            ThreadedBackend(session).run(0)

    def test_prefetch_off_holds_one_batch(self, tiny_ds, eq_cfg,
                                          gpu_platform, monkeypatch):
        """``threaded`` opens the session's window: on a
        ``prefetch=False`` session every producer buffer holds at most
        one batch — training is slowed, so the producer would fill any
        deeper buffer — and the run stays bit-identical to the virtual
        reference, hybrid + DRM + int8 included."""
        def session():
            return TrainingSession(
                tiny_ds, eq_cfg,
                SystemConfig(hybrid=True, drm=True, prefetch=False,
                             transfer_precision="int8"),
                gpu_platform, profile_probes=2)

        iterations = 6
        sv = session()
        rv = VirtualTimeBackend(sv).run(iterations)
        st = session()
        for trainer in st.trainers:
            def slow(*args, _train=trainer.train_minibatch):
                time.sleep(0.01)
                return _train(*args)
            monkeypatch.setattr(trainer, "train_minibatch", slow)
        rt = ThreadedBackend(st, timeout_s=30).run(iterations)

        assert rt.prefetch_high_water <= 1
        assert all(stats.items > 0 and stats.high_water <= 1
                   for stats in rt.stage_stats.values())
        np.testing.assert_array_equal(rt.losses, rv.losses)
        assert rt.split_history == rv.split_history
        for pv, pt in zip(_param_sets(sv.trainers),
                          _param_sets(st.trainers)):
            np.testing.assert_array_equal(pv, pt)


class TestPipelinedBackend:
    """Pipelined-plane specifics the generic tiered matrix cannot see."""

    def test_single_trainer_matches_virtual_bit_for_bit(self, tiny_ds,
                                                        eq_cfg):
        """With one trainer there is a single sample-stage thread, so
        the sampler stream is consumed in plan order and overlap cannot
        reorder any stochastic draw: the pipelined plane must be
        bit-identical to the virtual reference — losses, accuracies,
        and every final parameter."""
        sys_cfg = SystemConfig(hybrid=True, drm=False, prefetch=True)

        sv = TrainingSession(tiny_ds, eq_cfg, sys_cfg, num_trainers=1)
        rep_v = VirtualTimeBackend(sv).run_epoch()

        sp = TrainingSession(tiny_ds, eq_cfg, sys_cfg, num_trainers=1)
        rep_p = PipelinedBackend(sp, timeout_s=30).run_epoch()

        assert rep_p.iterations == rep_v.iterations
        np.testing.assert_array_equal(rep_v.losses, rep_p.losses)
        np.testing.assert_array_equal(rep_v.accuracies,
                                      rep_p.accuracies)
        assert rep_p.total_edges == rep_v.total_edges
        for tv, tp in zip(sv.trainers, sp.trainers):
            np.testing.assert_array_equal(tv.model.get_flat_params(),
                                          tp.model.get_flat_params())

    def test_full_epoch_covers_train_set_exactly(self, tiny_ds, eq_cfg):
        """Overlap may run ahead, but never loses or duplicates work:
        one epoch's trained targets are exactly the train set."""
        session = TrainingSession(
            tiny_ds, eq_cfg,
            SystemConfig(hybrid=True, drm=False, prefetch=True),
            num_trainers=3)
        rep = PipelinedBackend(session, timeout_s=30).run_epoch()
        flat = np.concatenate(rep.trained_targets)
        assert np.unique(flat).size == flat.size
        np.testing.assert_array_equal(np.sort(flat),
                                      tiny_ds.train_ids)
        assert session.plan.epochs_started == 1

    def test_overlap_report_covers_every_stage(self, tiny_ds, eq_cfg,
                                               fpga_platform,
                                               monkeypatch):
        """The overlap report accounts for every item that flowed
        through every trainer's one feed buffer, ``train``."""
        sys_cfg = SystemConfig(hybrid=True, drm=True, prefetch=True,
                               transfer_precision="int8")
        session = TrainingSession(tiny_ds, eq_cfg, sys_cfg,
                                  fpga_platform, profile_probes=2)
        backend = PipelinedBackend(session, timeout_s=30)
        feeds = spy_feeds(backend, monkeypatch)
        rep = backend.run_epoch()
        n = session.num_trainers
        assert set(rep.stage_stats) == {"train"}
        for stats in rep.stage_stats.values():
            # Every iteration hands one item per trainer through each
            # stage (idle trainers get a pass-through marker).
            assert stats.items == rep.iterations * n
            assert stats.high_water >= 1
            assert stats.mean_occupancy >= 0.0
        assert rep.prefetch_high_water >= 1
        assert rep.wall_time_s > 0
        # Every stage buffer holds the session's window, timing plane
        # or not.
        assert {b.depth for b in feeds[0].buffers} == \
            {sys_cfg.prefetch_depth}

    @staticmethod
    def _paced_drm_run(platform, lanes, monkeypatch):
        """60 iterations of a three-trainer DRM session on ``lanes``
        lanes whose every batch bills 0.1 ms per target as its train
        seconds and none as its load (the batches still train), the
        estimator warm from the first reading: ``(start split, report,
        session)``."""
        monkeypatch.setattr(pipelined, "usable_cores", lambda: lanes)
        # Eight iterations an epoch: a ragged last one, which the CPU
        # quota slows, stays a small share of each trial's window.
        ds = tiny_dataset(num_vertices=6000, feature_dim=12,
                          num_classes=4, avg_degree=8.0, seed=5)
        cfg = TrainingConfig(model="sage", minibatch_size=128,
                             fanouts=(4, 3), hidden_dim=16,
                             learning_rate=0.05, seed=11)
        session = TrainingSession(
            ds, cfg, SystemConfig(hybrid=True, drm=True, prefetch=True),
            platform, profile_probes=2)
        assert [t.kind for t in session.trainers] == \
            ["cpu", "accel", "accel"]
        backend = PipelinedBackend(session, timeout_s=30)
        backend.estimator = OnlineEstimator(warmup=1)
        train_one = backend._train_one

        def paced(idx, item):
            size, reply = train_one(idx, item)
            if reply is not None:
                reply.stage_s.update(load=0.0, train=1e-4 * size)
            return size, reply

        monkeypatch.setattr(backend, "_train_one", paced)
        start = session.split
        return start, backend.run(60), session

    def test_calibrated_drm_balances_two_lanes(self, gpu_platform,
                                               monkeypatch):
        """Three trainers on two lanes, every batch costing the same
        seconds per target: equalizing the trainers holds the split,
        but the lane fold bills the two accelerator batches that share
        a lane as their sum, so calibrated DRM moves quota toward the
        CPU trainer, further than on a lane per trainer, and every
        split keeps the per-iteration total."""
        start, rep, session = self._paced_drm_run(gpu_platform, 2,
                                                  monkeypatch)
        assert {split.total_targets for split in rep.split_history} == \
            {start.total_targets}
        end = session.split
        # The lanes balance at 192/96/96 (one 16-target step either
        # way: a trial may be pending when the run ends).
        assert abs(end.cpu_targets - 192) <= 16
        assert all(e < s for e, s in zip(end.accel_targets,
                                         start.accel_targets))
        assert any(d.detail == "training accel->cpu"
                   for d in session.drm.decisions)
        _, _, per_lane = self._paced_drm_run(gpu_platform, 3,
                                             monkeypatch)
        assert end.cpu_targets > per_lane.split.cpu_targets

    def test_same_seed_runs_are_bit_identical(self, tiny_ds):
        """One producer draws the session's stream in plan order, so
        two same-seed three-trainer runs where the estimator moves no
        quota retrace one trajectory bit for bit."""
        case = CONFORMANCE_CASES[1]
        assert case.num_trainers == 3 and estimator_idle(case)
        first, second = (run_backend("pipelined", case, tiny_ds)
                         for _ in range(2))
        assert_twin_identical("pipelined rerun", *first, *second)

    def test_stays_statistical_under_calibrated_drm(self, tiny_ds):
        """Under DRM on a timing plane the estimator calibrates on
        realized wall-clock seconds and the consumer's DRM step trails
        the producer, so only the DRM-free matrix cases hold
        ``pipelined`` to ``threaded`` bit for bit; the flagship case
        runs the statistical tier, calibrated."""
        assert STRICT_TWINS["pipelined"] == "threaded"
        assert [estimator_idle(c) for c in CONFORMANCE_CASES] == \
            [False, True, True, True]
        assert backend_tier("pipelined") == "statistical"
        _, rep = run_backend("pipelined", CONFORMANCE_CASES[0], tiny_ds)
        assert rep.calibration and rep.split_history

    def test_resumed_session_continues_from_trained_weights(self,
                                                            tiny_ds,
                                                            eq_cfg):
        """Back-to-back run() calls on one session keep training the
        same replicas (single-trainer, so bit-comparable across
        planes)."""
        sys_cfg = SystemConfig(hybrid=True, drm=False, prefetch=True)

        sv = TrainingSession(tiny_ds, eq_cfg, sys_cfg, num_trainers=1)
        vb = VirtualTimeBackend(sv)
        vb.run_epoch(max_iterations=2)
        second_v = vb.run_epoch(max_iterations=2)

        sp = TrainingSession(tiny_ds, eq_cfg, sys_cfg, num_trainers=1)
        pb = PipelinedBackend(sp, timeout_s=30)
        pb.run(2)
        second_p = pb.run(2)

        np.testing.assert_array_equal(second_v.losses, second_p.losses)
        for tv, tp in zip(sv.trainers, sp.trainers):
            np.testing.assert_array_equal(tv.model.get_flat_params(),
                                          tp.model.get_flat_params())

    def test_invalid_construction_rejected(self, tiny_ds, eq_cfg):
        from repro.errors import ProtocolError
        session = TrainingSession(
            tiny_ds, eq_cfg,
            SystemConfig(hybrid=True, drm=False, prefetch=True),
            num_trainers=2)
        with pytest.raises(ProtocolError):
            PipelinedBackend(session, timeout_s=0)
        with pytest.raises(ProtocolError):
            PipelinedBackend(session).run(0)


class TestProcessPipelinedBackend:
    """Fused-plane specifics the generic tiered matrix cannot see:
    look-ahead dealing bounds, DRM lag semantics, and parity with the
    worker-sampling plane."""

    def _session(self, tiny_ds, eq_cfg, n=3, prefetch_depth=2):
        return TrainingSession(
            tiny_ds, eq_cfg,
            SystemConfig(hybrid=True, drm=False, prefetch=True,
                         prefetch_depth=prefetch_depth),
            num_trainers=n)

    def _platform_session(self, tiny_ds, eq_cfg, platform,
                          prefetch=True, prefetch_depth=2):
        return TrainingSession(
            tiny_ds, eq_cfg,
            SystemConfig(hybrid=True, drm=True, prefetch=prefetch,
                         prefetch_depth=prefetch_depth,
                         transfer_precision="int8"),
            platform, profile_probes=2)

    @pytest.mark.parametrize(
        "depth, platform, epochs",
        [(1, True, 2), (2, True, 2), (3, False, 2)],
        ids=["depth1-drm", "depth2-drm-prefetch", "depth3-no-platform"])
    def test_lookahead_matches_worker_sampling_bit_for_bit(
            self, depth, platform, epochs, tiny_ds, eq_cfg,
            gpu_platform):
        """Look-ahead changes *when* an item is dealt, never *what* is
        trained: the fused plane reproduces the worker-sampling plane
        bit for bit — losses, worker-echoed targets, DRM trajectory,
        sampled edges, and every final parameter.

        * With DRM both sides run the same session. ``prefetch=False``
          gives a window of 1, which keeps both planes lock-step:
          shards are dealt only after the previous iteration's DRM
          step — the DRM-lag regression pins' zero-lag anchor. Under
          two-stage prefetch both planes deal the window of 2 ahead,
          so Algorithm 1's adjustments lag the dealt window the same
          way on each. The gpu platform's DRM moves the split inside
          the two epochs, so neither case is vacuous.
        * Without a platform (no DRM) the fused plane's session window
          of 3 keeps three iterations dealt ahead on every worker
          across two epochs on one backend — against
          ``process_sampling``'s window of 2 — and still trains the
          same batches.

        Run under :func:`analytic_lookahead`: the worker-sampling plane
        never calibrates its timing step against realized wall clocks,
        so parity demands the fused plane's estimator stay cold (by
        default it warms and corrects the modelled stage times with
        measured ones, which intentionally diverges)."""
        def session(window):
            if platform:
                return self._platform_session(tiny_ds, eq_cfg,
                                              gpu_platform,
                                              prefetch=depth > 1,
                                              prefetch_depth=depth)
            return self._session(tiny_ds, eq_cfg, prefetch_depth=window)

        ss = session(2)
        with ProcessSamplingBackend(ss, timeout_s=60) as backend:
            rs = [backend.run_epoch() for _ in range(epochs)]

        sf = session(depth)
        with ProcessPipelinedBackend(sf, timeout_s=60) as backend:
            analytic_lookahead(backend)
            rf = [backend.run_epoch() for _ in range(epochs)]

        if platform:
            splits = [sp for r in rs for sp in r.split_history]
            assert any(sp != splits[0] for sp in splits), \
                "DRM never moved"
            assert all(max(n for n, _ in r.lookahead_history) == depth
                       for r in rs)
        for a, b in zip(rs, rf):
            assert max(n for n, _ in b.lookahead_history) == depth
            assert b.iterations == a.iterations
            np.testing.assert_array_equal(a.losses, b.losses)
            np.testing.assert_array_equal(a.accuracies, b.accuracies)
            assert b.total_edges == a.total_edges
            assert b.split_history == a.split_history
            assert b.stage_history == a.stage_history
            for wa, wb in zip(a.worker_targets, b.worker_targets,
                              strict=True):
                assert len(wa) == len(wb)
                for ta, tb in zip(wa, wb):
                    np.testing.assert_array_equal(ta, tb)
        for ts, tf in zip(ss.trainers, sf.trainers):
            np.testing.assert_array_equal(ts.model.get_flat_params(),
                                          tf.model.get_flat_params())

    @pytest.mark.parametrize(
        "backend_cls", [ProcessPipelinedBackend, ProcessSamplingBackend],
        ids=["process_pipelined", "process_sampling"])
    def test_drm_adjustments_lag_the_dealt_window(
            self, backend_cls, tiny_ds, eq_cfg, gpu_platform):
        """A shard is sliced with the split current when it is *dealt*.
        With the window held at ``depth``, iteration ``depth`` is dealt
        as soon as iteration 0 retires — before Algorithm 1 has seen
        iterations 1..depth-1 — so a DRM move that lock-step dealing
        would apply to iteration ``depth`` cannot reach it: the first
        ``depth + 1`` dealt iterations are what the plan yields with
        *no* DRM adjustment (the pipelined plane's documented
        one-window lag). Both worker-sampling presets deal the same
        window, calibrated or not. The gpu platform's DRM moves the
        CPU quota for exactly that iteration, so the pin is not
        vacuous."""
        depth, iterations = 3, 12
        sf = self._platform_session(tiny_ds, eq_cfg, gpu_platform,
                                    prefetch_depth=depth)
        with backend_cls(sf, timeout_s=60) as backend:
            if backend.estimator is not None:
                analytic_lookahead(backend)
            rf = backend.run(iterations)
        assert max(n for n, _ in rf.lookahead_history) == depth

        # Reference: an identical session whose split is never
        # adjusted (plan iterated directly, no backend, no DRM).
        ref = self._platform_session(tiny_ds, eq_cfg, gpu_platform,
                                     prefetch_depth=depth)
        ref_sizes = [planned.batch_sizes
                     for _, planned in ref.plan.iterate(iterations)]
        moved = rf.split_history[depth]
        assert moved != rf.split_history[0], "DRM never moved"
        # Lock-step dealing would have sliced iteration ``depth`` with
        # the moved split; the window had already dealt it.
        assert (moved.cpu_targets, *moved.accel_targets) != \
            ref_sizes[depth]
        assert rf.dealt_sizes[:depth + 1] == ref_sizes[:depth + 1]
        # Work conservation at deal time: Algorithm 1 moves targets
        # between trainers, never an iteration's total.
        assert [sum(s) for s in rf.dealt_sizes] == \
            [sum(s) for s in ref_sizes]

    def test_lookahead_never_exceeds_adaptive_cap(self, tiny_ds,
                                                  eq_cfg,
                                                  fpga_platform):
        """The bounded-queue audit: on a timing session the dealer
        holds the session's window for the whole run, and in-flight
        dealt iterations never exceed it."""
        window = 3
        sf = self._platform_session(tiny_ds, eq_cfg, fpga_platform,
                                    prefetch_depth=window)
        with ProcessPipelinedBackend(sf, timeout_s=60) as backend:
            rf = backend.run_epoch()
        assert len(rf.lookahead_history) == rf.iterations
        for in_flight, depth in rf.lookahead_history:
            assert 1 <= in_flight <= window
            assert depth == window
        assert max(n for n, _ in rf.lookahead_history) == \
            min(window, rf.iterations)

    @pytest.mark.parametrize("case", CONFORMANCE_CASES[:2],
                             ids=_CASE_IDS[:2])
    def test_one_average_row_suffices_under_lookahead(self, case,
                                                      tiny_ds):
        """The slab race, provoked: three iterations in flight, idle
        workers in the mix (quota-0 CPU trainer / epoch tail), and
        worker 0 dawdling before every apply. Every worker answers
        every iteration only after applying the previous one and the
        parent publishes an average only after all answers, so the
        single average row is never overwritten under a lagging
        reader: the statistical matrix holds and the snapshot's
        bit-for-bit audit of worker parameters against the parent
        mirrors stays green.
        """
        case = _with_window(case, 3)
        assert_backend_conforms("process_pipelined", case, tiny_ds)

        class Lagging(ProcessPipelinedBackend):
            replica_cls = LaggingReplica

        session = make_session(case, tiny_ds)
        with Lagging(session, timeout_s=60) as backend:
            rep = backend.run_epoch()
        assert any(0 in sizes for sizes in rep.dealt_sizes)
        assert max(n for n, _ in rep.lookahead_history) > 1
        assert rep.replicas_consistent

    def test_invalid_construction_rejected(self, tiny_ds, eq_cfg):
        from repro.errors import ProtocolError
        session = self._session(tiny_ds, eq_cfg, n=2)
        with pytest.raises(ProtocolError):
            ProcessPipelinedBackend(session, timeout_s=0)
        with pytest.raises(ProtocolError):
            ProcessPipelinedBackend(session).run(0)


class TestHybridDRMQuantizedEquivalence:
    """The flagship case through the public construction paths
    (``VirtualTimeBackend(session)`` vs ``build_backend``) — they
    must preserve the parity the conformance kit proves for raw
    backends."""

    @pytest.fixture()
    def sys_cfg(self):
        return SystemConfig(hybrid=True, drm=True, prefetch=True,
                            transfer_precision="int8")

    def test_threads_match_virtual_plane(self, tiny_ds, eq_cfg, sys_cfg,
                                         fpga_platform):
        session = TrainingSession(tiny_ds, eq_cfg, sys_cfg,
                                  fpga_platform, profile_probes=2)
        rep_v = VirtualTimeBackend(session).run_epoch()

        ex = threaded_backend(tiny_ds, eq_cfg, sys_cfg, fpga_platform)
        rep_t = ex.run_epoch()

        assert rep_t.iterations == rep_v.iterations
        # Identical losses, bit for bit (same batches, same gradients,
        # same all-reduce, same optimizer steps — threading must not
        # change the math).
        np.testing.assert_array_equal(rep_v.losses, rep_t.losses)
        np.testing.assert_array_equal(rep_v.accuracies, rep_t.accuracies)
        assert rep_t.replicas_consistent

        # The DRM trajectory is part of the contract: the producer
        # applies Algorithm 1 in virtual-plane order.
        assert rep_v.split_history == rep_t.split_history
        assert rep_v.stage_history == rep_t.stage_history
        assert rep_v.total_edges == rep_t.total_edges
        assert rep_t.virtual_time_s == pytest.approx(rep_v.virtual_time_s)

        # Final model replicas agree across planes, parameter for
        # parameter.
        for pv, pt in zip(_param_sets(session.trainers),
                          _param_sets(ex.session.trainers)):
            np.testing.assert_array_equal(pv, pt)

    def test_threaded_plane_runs_hybrid_trainer_set(self, tiny_ds,
                                                    eq_cfg, sys_cfg,
                                                    fpga_platform):
        ex = threaded_backend(tiny_ds, eq_cfg, sys_cfg, fpga_platform)
        s = ex.session
        assert [t.kind for t in s.trainers] == ["cpu", "accel", "accel"]
        assert s.drm is not None
        rep = ex.run(3)
        assert len(s.drm.decisions) == 3
        assert s.split.total_targets == s.initial_split.total_targets

    def test_quantization_flag_is_live_on_threads(self, tiny_ds, eq_cfg,
                                                  fpga_platform):
        """int8 transfer must change accelerator inputs (and hence
        losses) relative to fp32 — proving the policy executes on the
        threaded plane rather than being silently ignored."""
        def run(precision):
            sys_cfg = SystemConfig(hybrid=True, drm=False, prefetch=True,
                                   transfer_precision=precision)
            return threaded_backend(tiny_ds, eq_cfg, sys_cfg,
                                    fpga_platform).run(3).losses

        assert run("int8") != run("fp32")


class TestEpochSemantics:
    """A live-plane epoch covers the train set exactly."""

    def test_plan_epoch_partitions_train_set(self, tiny_ds, eq_cfg):
        session = TrainingSession(tiny_ds, eq_cfg, SystemConfig(
            hybrid=True, drm=False, prefetch=True), num_trainers=3)
        seen = []
        for planned in session.plan.start_epoch():
            for targets in planned.assignments:
                if targets is not None:
                    seen.append(targets)
        flat = np.concatenate(seen)
        # Every train vertex exactly once — no repeats, no gaps.
        assert flat.size == tiny_ds.train_ids.size
        np.testing.assert_array_equal(np.sort(flat), tiny_ds.train_ids)

    def test_run_epoch_iteration_count(self, tiny_ds, eq_cfg):
        ex = threaded_backend(tiny_ds, eq_cfg, num_trainers=2)
        rep = ex.run_epoch()
        assert rep.iterations == ex.session.iterations_per_epoch()

    def test_long_runs_roll_into_fresh_epochs(self, tiny_ds, eq_cfg):
        ex = threaded_backend(tiny_ds, eq_cfg, num_trainers=2)
        per_epoch = ex.session.iterations_per_epoch()
        rep = ex.run(per_epoch + 2)
        assert len(rep.losses) == per_epoch + 2
        assert ex.session.plan.epochs_started == 2

    def test_process_long_runs_roll_into_fresh_epochs(self, tiny_ds,
                                                      eq_cfg):
        session = TrainingSession(tiny_ds, eq_cfg, SystemConfig(
            hybrid=True, drm=False, prefetch=True), num_trainers=2)
        per_epoch = session.iterations_per_epoch()
        rep = ProcessPoolBackend(session, timeout_s=60).run(per_epoch + 2)
        assert len(rep.losses) == per_epoch + 2
        assert session.plan.epochs_started == 2


class TestSessionValidation:
    def test_drm_without_platform_rejected_eagerly(self, tiny_ds,
                                                   eq_cfg):
        """DRM needs stage times; a platform-less session must refuse
        it loudly rather than silently dropping the feature."""
        with pytest.raises(ConfigError):
            TrainingSession(tiny_ds, eq_cfg,
                            SystemConfig(hybrid=True, drm=True),
                            platform=None)


class TestSamplerRegistry:
    def test_unknown_sampler_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            TrainingConfig(sampler="ladies")

    def test_registered_third_party_sampler_accepted(self, tiny_ds,
                                                     eq_cfg):
        """register_sampler names are valid config values and flow
        through the session into any backend."""
        from repro.sampling import (
            SAMPLER_REGISTRY,
            NeighborSampler,
            register_sampler,
        )
        register_sampler(
            "custom-neighbor",
            lambda graph, ids, cfg, fdim: NeighborSampler(
                graph, ids, cfg.fanouts, fdim, seed=cfg.seed))
        try:
            cfg = eq_cfg.with_updates(sampler="custom-neighbor")
            session = TrainingSession(tiny_ds, cfg, SystemConfig(
                hybrid=True, drm=False, prefetch=True), num_trainers=2)
            assert all(isinstance(sampler, NeighborSampler)
                       for sampler in session.samplers)
            rep = VirtualTimeBackend(session).run_epoch(max_iterations=2)
            assert rep.iterations == 2
        finally:
            SAMPLER_REGISTRY.pop("custom-neighbor", None)


class TestBackendRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("pipelined", "process",
                                        "process_pipelined",
                                        "process_sampling", "sharded",
                                        "threaded", "virtual")
        assert get_backend("virtual") is VirtualTimeBackend
        assert get_backend("threaded") is ThreadedBackend
        assert get_backend("process") is ProcessPoolBackend
        assert get_backend("process_sampling") is ProcessSamplingBackend
        assert get_backend("pipelined") is PipelinedBackend
        assert get_backend("process_pipelined") is \
            ProcessPipelinedBackend
        assert get_backend("sharded") is ShardedBackend

    def test_declared_conformance_tiers(self):
        """Lock-step backends are strict; the out-of-lock-step planes
        (overlapped pipeline, per-worker sampler streams, and their
        fusion) are statistical."""
        from backend_conformance import backend_tier
        assert backend_tier("threaded") == "strict"
        assert backend_tier("process") == "strict"
        assert backend_tier("pipelined") == "statistical"
        assert backend_tier("process_sampling") == "statistical"
        assert backend_tier("process_pipelined") == "statistical"
        assert backend_tier("sharded") == "statistical"

    def test_unknown_tier_rejected(self):
        """A backend declaring a bogus tier fails loudly in the kit,
        not silently against the wrong matrix."""
        from backend_conformance import backend_tier

        @register_backend
        class BogusTierBackend(VirtualTimeBackend):
            name = "bogus-tier"
            conformance_tier = "vibes"

        try:
            with pytest.raises(ConfigError):
                backend_tier("bogus-tier")
        finally:
            BACKENDS.pop("bogus-tier", None)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            get_backend("quantum")

    def test_backend_constructible_from_registry(self, tiny_ds, eq_cfg,
                                                 fpga_platform):
        session = TrainingSession(tiny_ds, eq_cfg, platform=fpga_platform,
                                  profile_probes=2)
        backend = get_backend("virtual")(session)
        rep = backend.run_epoch(max_iterations=2)
        assert rep.iterations == 2
        assert all(np.isfinite(l) for l in rep.losses)

    def test_kit_can_construct_every_candidate_backend(self, tiny_ds):
        """The kit's construction kwargs actually fit each registered
        backend's constructor — a BACKEND_KWARGS entry going stale (or
        a new backend needing kwargs without one) fails here, not
        deep inside a conformance run."""
        from backend_conformance import CONFORMANCE_CASES, make_session
        from repro.runtime import ExecutionBackend
        for name in candidate_backends():
            session = make_session(CONFORMANCE_CASES[1], tiny_ds)
            backend = get_backend(name)(
                session, **BACKEND_KWARGS.get(name, {}))
            assert isinstance(backend, ExecutionBackend)
