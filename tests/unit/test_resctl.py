"""Resource-control units: the realized-stage fold and the
timing-plane hooks it plugs into.

The resctl package closes the loop between the *modelled* timing plane
and the *realized* one: :func:`fold_worker_realized` maps the wall
times the live backends' replies carry onto canonical stage keys, and
a live plane's timing step reads that fold as its clock. Alongside sit
the empty-fold and duplex-derate regression pins.
"""

import numpy as np
import pytest

from repro.config import SystemConfig, TrainingConfig
from repro.perfmodel.model import StageTimes
from repro.runtime import TrainingSession
from repro.runtime.backends.report import fold_stage_stats
from repro.runtime.resctl import (
    FIELD_BY_STAGE,
    REALIZED_STAGES,
    fold_worker_realized,
    stage_key,
)


def _times(value: float = 0.01) -> StageTimes:
    return StageTimes(t_sample_cpu=value, t_sample_accel=value,
                      t_load=value, t_transfer=value,
                      t_train_cpu=value, t_train_accel=value,
                      t_sync=value)


class TestFoldWorkerRealized:
    def test_kind_aware_reductions(self):
        realized = fold_worker_realized(
            [("cpu", {"sample": 1.0, "load": 2.0, "train": 3.0}),
             ("accel", {"sample": 0.5, "load": 1.0, "transfer": 0.2,
                        "train": 4.0}),
             ("accel", {"sample": 0.7, "load": 0.5, "transfer": 0.6,
                        "train": 2.0})],
            sync_s=0.1)
        assert realized["sample_cpu"] == pytest.approx(1.0)
        assert realized["sample_accel"] == pytest.approx(0.7)  # max
        assert realized["load"] == pytest.approx(3.5)          # sum
        assert "transfer" not in realized   # no realized transfer stage
        assert realized["train_cpu"] == pytest.approx(3.0)
        assert realized["train_accel"] == pytest.approx(4.0)   # max
        assert realized["sync"] == pytest.approx(0.1)

    def test_two_lanes_sum_the_accelerators_that_share_one(self):
        # Lane 0 takes the CPU batch (5 s), lane 1 the first
        # accelerator's (3 s) and, free first, the second's (3 s).
        per_trainer = [
            ("cpu", {"sample": 1.0, "load": 1.0, "train": 4.0}),
            ("accel", {"sample": 0.5, "load": 1.0, "train": 2.0}),
            ("accel", {"sample": 0.7, "load": 0.5, "train": 2.5})]
        realized = fold_worker_realized(per_trainer, sync_s=0.1, lanes=2)
        assert realized["train_cpu"] == pytest.approx(5.0)
        assert realized["train_accel"] == pytest.approx(6.0)   # 3 + 3
        per_trainer_fold = fold_worker_realized(per_trainer, sync_s=0.1)
        for key in ("sample_cpu", "sample_accel", "load", "sync"):
            assert realized[key] == per_trainer_fold[key]

    def test_the_first_free_lane_takes_the_next_batch(self):
        # The CPU lane frees first (1 s), so the second accelerator
        # batch follows the CPU's: the accelerators finish at 4 s, on
        # the lane that trained only the first one.
        realized = fold_worker_realized(
            [("cpu", {"train": 1.0}), ("accel", {"train": 4.0}),
             ("accel", {"train": 2.0})], lanes=2)
        assert realized["train_cpu"] == pytest.approx(1.0)
        assert realized["train_accel"] == pytest.approx(4.0)

    def test_an_idle_trainer_passes_its_lane_at_once(self):
        realized = fold_worker_realized(
            [("cpu", {}), ("accel", {"load": 1.0, "train": 2.0}),
             ("accel", {"load": 1.0, "train": 2.0})], lanes=2)
        assert realized == {"load": 2.0, "train_accel": 3.0}

    @pytest.mark.parametrize("lanes", [None, 1, 3, 4])
    def test_one_lane_or_a_lane_per_trainer_folds_per_trainer(self,
                                                              lanes):
        per_trainer = [
            ("cpu", {"sample": 1.0, "load": 2.0, "train": 3.0}),
            ("accel", {"sample": 0.5, "load": 1.0, "transfer": 0.2,
                       "train": 4.0}),
            ("accel", {"sample": 0.7, "load": 0.5, "transfer": 0.6,
                       "train": 2.0})]
        assert fold_worker_realized(per_trainer, 0.1, lanes) == \
            fold_worker_realized(per_trainer, 0.1) == {
                "sample_cpu": 1.0, "sample_accel": 0.7, "load": 3.5,
                "train_cpu": 3.0, "train_accel": 4.0, "sync": 0.1}

    def test_idle_and_invalid_entries_skipped(self):
        realized = fold_worker_realized(
            [("cpu", {}),
             ("accel", {"train": float("nan"), "load": -1.0}),
             ("cpu", {"train": 2.0})])
        assert realized == {"train_cpu": 2.0}

    def test_transfer_contributions_dropped(self):
        # Every load folds the transfer policy into ``load``; a stray
        # raw ``transfer`` measurement, from either kind, is dropped.
        assert fold_worker_realized([("cpu", {"transfer": 5.0}),
                                     ("accel", {"transfer": 5.0})]) == {}

    def test_stage_key_by_kind(self):
        raws = ("sample", "load", "transfer", "train", "mystery")
        cpu = {raw: stage_key("cpu", raw) for raw in raws}
        accel = {raw: stage_key("accel", raw) for raw in raws}
        assert cpu == {"sample": "sample_cpu", "load": "load",
                       "transfer": None, "train": "train_cpu",
                       "mystery": None}
        assert accel == {"sample": "sample_accel", "load": "load",
                         "transfer": None, "train": "train_accel",
                         "mystery": None}
        assert set(cpu.values()) | set(accel.values()) <= \
            set(REALIZED_STAGES) | {None}

    def test_every_realized_stage_backs_one_modelled_field(self):
        # Each realized stage replaces exactly one StageTimes field on a
        # live plane; the transfer has no realized stage and keeps its
        # modelled time.
        fields = set(_times().__dataclass_fields__)
        assert set(FIELD_BY_STAGE) == set(REALIZED_STAGES)
        assert len(set(FIELD_BY_STAGE.values())) == len(FIELD_BY_STAGE)
        assert set(FIELD_BY_STAGE.values()) == fields - {"t_transfer"}


class TestReportStageSeconds:
    """``RunReport.add_stage_seconds`` bills one trained batch's raw
    ``Reply.stage_s`` under the same :func:`stage_key` rule the
    realized fold uses."""

    def test_one_count_per_batch_and_summed_seconds(self):
        from repro.runtime.backends.report import RunReport
        report = RunReport(iterations=2)
        report.add_stage_seconds("cpu", {"load": 1.0, "train": 3.0})
        report.add_stage_seconds("cpu", {"load": 0.5, "train": 2.0})
        assert report.stage_seconds == {"load": (2, 1.5),
                                        "train_cpu": (2, 5.0)}

    def test_keys_follow_the_trainer_kind(self):
        from repro.runtime.backends.report import RunReport
        report = RunReport(iterations=1)
        stage_s = {"sample": 0.1, "load": 0.2, "transfer": 0.3,
                   "train": 0.4, "sync": 0.5, "mystery": 0.6}
        report.add_stage_seconds("cpu", stage_s)
        report.add_stage_seconds("accel", stage_s)
        # ``load`` is shared; ``transfer`` has no realized stage;
        # ``sync`` feeds the live clock only and unknown stages are
        # dropped.
        assert report.stage_seconds == {
            "sample_cpu": (1, 0.1), "sample_accel": (1, 0.1),
            "load": (2, pytest.approx(0.4)),
            "train_cpu": (1, 0.4), "train_accel": (1, 0.4)}


class TestFoldStageStatsEmpty:
    """Regression: ``fold_stage_stats`` on an empty entry list used to
    trip ``max()``/``np.mean`` — both call sites (the pipelined plane's
    in-process fold, the fused plane's per-worker pipe fold) can reach
    it with a stage no buffer ever carried."""

    def test_empty_entries_fold_to_zeroed_stats(self):
        stats = fold_stage_stats("sample", [])
        assert (stats.stage, stats.items, stats.high_water,
                stats.mean_occupancy) == ("sample", 0, 0, 0.0)

    def test_zeroed_fold_survives_the_report_fold(self):
        # The process planes' report path folds an all-zero chain.
        from repro.runtime.backends.report import RunReport
        report = RunReport(iterations=1)
        report.fold_buffers([{"sample": (0, 0, 0.0)}])
        assert report.stage_stats["sample"].items == 0
        assert report.prefetch_high_water == 0

    def test_nonempty_fold_unchanged(self):
        stats = fold_stage_stats("train",
                                 [(3, 2, 0.5), (5, 1, 1.5)])
        assert stats.items == 8
        assert stats.high_water == 2
        assert stats.mean_occupancy == pytest.approx(1.0)


class TestDurationRowGating:
    """The PCIe duplex-contention derate is priced exactly when the
    next transfer can overlap the gradient pull: under two-stage
    prefetch (``sys_cfg.prefetch``), the setting that opens every
    plane's look-ahead window — and never without it."""

    @pytest.fixture()
    def timing_session(self, tiny_ds, fpga_platform):
        def build(prefetch):
            cfg = TrainingConfig(model="sage", minibatch_size=32,
                                 fanouts=(4, 3), hidden_dim=16,
                                 learning_rate=0.05, seed=11)
            return TrainingSession(
                tiny_ds, cfg,
                SystemConfig(hybrid=True, drm=False, prefetch=prefetch),
                fpga_platform, profile_probes=2)
        return build

    def test_prefetch_pays_derate(self, timing_session):
        """Under ``prefetch`` the transfer carries the duplex derate."""
        session = timing_session(True)
        row = session.duration_row(_times(0.01))
        derate = session.platform.pcie.duplex_derate
        assert derate > 0.0
        assert row[2] == pytest.approx(0.01 * (1.0 + derate))

    def test_no_prefetch_skips_derate(self, timing_session):
        times = _times(0.01)
        row = timing_session(False).duration_row(times)
        assert row[2] == pytest.approx(0.01)
        # Only the transfer entry moves.
        overlapped = timing_session(True).duration_row(times)
        assert row[0] == overlapped[0]
        assert row[1] == overlapped[1]
        assert row[3] == overlapped[3]

    def test_zero_transfer_immune(self, timing_session):
        assert timing_session(True).duration_row(_times(0.0))[2] == 0.0


class TestTimingStepHooks:
    """``timing_step``'s clock: a live plane's realized stage seconds
    replace the modelled ones in the recorded times and steer DRM by
    trials that move quota alone."""

    @pytest.fixture()
    def session_pair(self, tiny_ds, fpga_platform):
        def build():
            cfg = TrainingConfig(model="sage", minibatch_size=32,
                                 fanouts=(4, 3), hidden_dim=16,
                                 learning_rate=0.05, seed=11)
            return TrainingSession(
                tiny_ds, cfg,
                SystemConfig(hybrid=True, drm=True, prefetch=True),
                fpga_platform, profile_probes=2)
        return build(), build()

    def _stats(self, session):
        planned = next(iter(session.plan.iterate(1)))[1]
        stats_cpu = None
        stats_accel = []
        for idx, trainer in enumerate(session.trainers):
            targets = planned.assignments[idx]
            st_ = None if targets is None else \
                session.samplers[idx].sample(targets).stats()
            if trainer.kind == "cpu":
                stats_cpu = st_
            else:
                stats_accel.append(st_)
        return stats_cpu, stats_accel

    def test_clock_overlays_the_realized_stages(self, session_pair):
        """Each realized stage replaces its modelled field in the
        returned times and the duration row; ``t_transfer`` has no
        realized key and stays modelled."""
        plain, live = session_pair
        for session in session_pair:
            session.drm = None        # hold the split still
        modelled, _, _ = plain.timing_step(*self._stats(plain), 0)
        realized = {"load": 0.5, "train_cpu": 0.25, "sync": 0.125}
        times, row, _ = live.timing_step(*self._stats(live), 0,
                                         realized=realized)
        assert times == modelled.with_updates(
            t_load=0.5, t_train_cpu=0.25, t_sync=0.125)
        assert times.t_transfer == modelled.t_transfer
        assert row == live.duration_row(times)

    def test_no_live_decision_moves_threads_or_sampling_share(
            self, session_pair):
        """A live plane has no thread pools and samples on the host:
        its DRM steps move quota both ways and nothing else."""
        session, _ = session_pair
        stats = self._stats(session)
        start = session.split
        rng = np.random.default_rng(0)
        for it in range(300):
            cpu_slow = (it // 40) % 2 == 0
            realized = {"train_cpu": 2.0 if cpu_slow else 1.0,
                        "train_accel": 1.0 if cpu_slow else 2.0,
                        "sync": float(rng.uniform(0.0, 0.1))}
            session.timing_step(*stats, it, realized=realized)
        moves = {d.detail for d in session.drm.decisions
                 if d.action == "balance_work"}
        assert moves == {"training cpu->accel", "training accel->cpu"}
        for d in session.drm.decisions:
            for name in ("sample_threads", "load_threads",
                         "train_threads", "accel_sample_fraction"):
                assert getattr(d.new_split, name) == \
                    getattr(start, name), (d, name)
            assert d.new_split.total_targets == start.total_targets
