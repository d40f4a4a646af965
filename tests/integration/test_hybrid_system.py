"""Integration tests for the hybrid system (a ``TrainingSession`` run by
the ``VirtualTimeBackend``) and ablation behaviour."""

import dataclasses

import numpy as np
import pytest

from repro.config import (
    ABLATION_PRESETS,
    SystemConfig,
    TrainingConfig,
)
from repro.errors import ConfigError
from repro.graph.datasets import load_dataset
from repro.hw.topology import (
    hyscale_cpu_fpga_platform,
    hyscale_cpu_gpu_platform,
)
from repro.runtime import TrainingSession, VirtualTimeBackend


def _virtual(dataset, cfg, platform, sys_cfg=None, full_scale=False):
    """A two-probe session on ``platform`` run by the virtual-time
    backend."""
    return VirtualTimeBackend(TrainingSession(
        dataset, cfg, sys_cfg, platform, full_scale=full_scale,
        profile_probes=2))


@pytest.fixture(scope="module")
def papers_small():
    return load_dataset("papers100m", scale=1 / 8192, seed=0)


@pytest.fixture(scope="module")
def sim_cfg():
    return TrainingConfig(model="gcn", minibatch_size=256,
                          fanouts=(10, 5), hidden_dim=64, seed=4)


@pytest.fixture(scope="module")
def func_cfg():
    """Small batches so the scaled train set spans several iterations."""
    return TrainingConfig(model="gcn", minibatch_size=16,
                          fanouts=(10, 5), hidden_dim=64, seed=4)


class TestConstruction:
    def test_builds_trainers(self, papers_small, sim_cfg):
        session = TrainingSession(papers_small, sim_cfg,
                                  platform=hyscale_cpu_fpga_platform(2),
                                  profile_probes=2)
        # hybrid default: CPU + 2 accelerators.
        assert session.num_trainers == 3
        kinds = [t.kind for t in session.trainers]
        assert kinds == ["cpu", "accel", "accel"]
        assert session.synchronizer.replicas_consistent()

    def test_non_hybrid_has_no_cpu_trainer(self, papers_small, sim_cfg):
        session = TrainingSession(
            papers_small, sim_cfg,
            SystemConfig(hybrid=False, drm=False, prefetch=False),
            hyscale_cpu_fpga_platform(2), profile_probes=2)
        assert session.num_trainers == 2
        assert session.split.cpu_targets == 0

    def test_no_accel_no_hybrid_rejected(self, papers_small, sim_cfg):
        with pytest.raises(ConfigError):
            TrainingSession(papers_small, sim_cfg,
                            SystemConfig(hybrid=False, drm=False,
                                         prefetch=False),
                            dataclasses.replace(
                                hyscale_cpu_fpga_platform(4),
                                num_accelerators=0))


class TestFunctionalEpoch:
    def test_epoch_report_fields(self, papers_small, func_cfg):
        backend = _virtual(papers_small, func_cfg,
                           hyscale_cpu_fpga_platform(2))
        rep = backend.run_epoch(max_iterations=3)
        assert rep.iterations == 3
        assert rep.virtual_time_s > 0
        assert rep.wall_time_s > 0 and rep.replicas_consistent
        assert len(rep.losses) == 3
        assert len(rep.stage_history) == 3
        assert rep.total_edges > 0
        assert rep.timeline.bottleneck_stage() in (
            "sample", "load", "transfer", "propagate")

    def test_epoch_covers_train_set(self, papers_small, func_cfg):
        backend = _virtual(papers_small, func_cfg,
                           hyscale_cpu_fpga_platform(2))
        rep = backend.run_epoch()
        covered = rep.iterations * backend.session.split.total_targets
        assert covered >= papers_small.train_ids.size


class TestSimulatedEpoch:
    def test_full_scale_iteration_count(self, papers_small, sim_cfg):
        backend = _virtual(papers_small, sim_cfg,
                           hyscale_cpu_fpga_platform(2), full_scale=True)
        rep = backend.simulate_epoch()
        expected = -(-papers_small.spec.train_count //
                     backend.session.split.total_targets)
        assert rep.iterations == pytest.approx(expected, abs=2)
        assert rep.losses == [] and rep.virtual_time_s > 0

    def test_deterministic_without_jitter(self, papers_small, sim_cfg):
        def run():
            backend = _virtual(papers_small, sim_cfg,
                               hyscale_cpu_fpga_platform(2),
                               full_scale=True)
            return backend.simulate_epoch(jitter=False,
                                          iterations=20).virtual_time_s
        assert run() == pytest.approx(run())

    def test_predicted_close_to_simulated(self, papers_small):
        """Fig. 8 invariant: at the paper's batch size (1024) the model
        error stays within ~20% (paper reports 5-14%)."""
        cfg = TrainingConfig(model="gcn", minibatch_size=1024,
                             fanouts=(10, 5), hidden_dim=64, seed=4)
        backend = _virtual(papers_small, cfg,
                           hyscale_cpu_fpga_platform(2), full_scale=True)
        actual = backend.simulate_epoch().virtual_time_s
        predicted = backend.session.predicted_epoch_time()
        err = abs(actual - predicted) / actual
        assert err < 0.20

    def test_prediction_underestimates(self, papers_small, sim_cfg):
        """The analytic model omits only *costs* (launches, fill,
        stragglers), so it must not exceed the simulated time by more
        than jitter noise."""
        backend = _virtual(papers_small, sim_cfg,
                           hyscale_cpu_fpga_platform(2), full_scale=True)
        actual = backend.simulate_epoch(jitter=False).virtual_time_s
        predicted = backend.session.predicted_epoch_time()
        assert predicted <= actual * 1.02


class TestAblationShape:
    @pytest.mark.parametrize("platform_factory", [
        hyscale_cpu_fpga_platform, hyscale_cpu_gpu_platform])
    def test_tfp_always_helps(self, papers_small, sim_cfg,
                              platform_factory):
        """Fig. 11: adding TFP to hybrid+DRM never slows the epoch."""
        times = {}
        for name in ("hybrid_drm", "hybrid_drm_tfp"):
            backend = _virtual(papers_small, sim_cfg,
                               platform_factory(2),
                               ABLATION_PRESETS[name], full_scale=True)
            times[name] = backend.simulate_epoch(
                iterations=60).virtual_time_s
        assert times["hybrid_drm_tfp"] < times["hybrid_drm"]

    def test_drm_never_hurts_much(self, papers_small, sim_cfg):
        """The revert guard bounds DRM regressions vs static."""
        times = {}
        for name in ("hybrid_static", "hybrid_drm"):
            backend = _virtual(papers_small, sim_cfg,
                               hyscale_cpu_gpu_platform(2),
                               ABLATION_PRESETS[name], full_scale=True)
            times[name] = backend.simulate_epoch(
                iterations=120).virtual_time_s
        assert times["hybrid_drm"] <= times["hybrid_static"] * 1.10

    def test_fpga_beats_gpu_hybrid(self, papers_small, sim_cfg):
        """Fig. 10's headline: CPU-FPGA beats CPU-GPU at equal count."""
        times = {}
        for plat in (hyscale_cpu_fpga_platform(4),
                     hyscale_cpu_gpu_platform(4)):
            backend = _virtual(papers_small, sim_cfg, plat,
                               ABLATION_PRESETS["hybrid_drm_tfp"],
                               full_scale=True)
            times[plat.accelerator.kind] = \
                backend.simulate_epoch(iterations=80).virtual_time_s
        assert times["fpga"] < times["gpu"]


class TestDRMIntegration:
    def test_drm_preserves_total_workload(self, papers_small, sim_cfg):
        backend = _virtual(papers_small, sim_cfg,
                           hyscale_cpu_gpu_platform(2),
                           ABLATION_PRESETS["hybrid_drm_tfp"],
                           full_scale=True)
        before = backend.session.split.total_targets
        backend.simulate_epoch(iterations=80)
        assert backend.session.split.total_targets == before

    def test_drm_decisions_recorded(self, papers_small, sim_cfg):
        backend = _virtual(papers_small, sim_cfg,
                           hyscale_cpu_gpu_platform(2),
                           ABLATION_PRESETS["hybrid_drm_tfp"],
                           full_scale=True)
        backend.simulate_epoch(iterations=40)
        assert backend.session.drm is not None
        assert len(backend.session.drm.decisions) == 40
