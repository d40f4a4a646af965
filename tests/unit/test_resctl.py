"""Resource-control units: the realized-stage fold, the estimator, and
the timing-plane hooks they plug into.

The resctl package closes the loop between the *modelled* timing plane
and the *realized* one: :func:`fold_worker_realized` maps the wall
times the live backends' replies carry onto canonical stage keys,
:class:`OnlineEstimator` calibrates the analytic model against them.
The estimator sits directly upstream of
``drm_step``, so its safety contract — corrections
always positive and finite, calibrated times never non-finite or
negative, exact no-op until warm — is pinned here as hypothesis
properties, alongside the empty-fold and duplex-derate regression
fixes this PR ships.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig, TrainingConfig
from repro.errors import ProtocolError
from repro.perfmodel.model import StageTimes
from repro.runtime import TrainingSession
from repro.runtime.backends.report import fold_stage_stats
from repro.runtime.resctl import (
    OnlineEstimator,
    REALIZED_STAGES,
    fold_worker_realized,
    stage_key,
)

common_settings = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

#: Non-negative finite stage seconds, the shape a well-behaved plane
#: observes.
finite_seconds = st.floats(min_value=0.0, max_value=1e6,
                           allow_nan=False, allow_infinity=False)

#: Arbitrary floats, the shape a misbehaving plane might observe.
hostile_seconds = st.floats(allow_nan=True, allow_infinity=True)


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


class TestReportStageSeconds:
    """``RunReport.add_stage_seconds`` bills one trained batch's raw
    ``Reply.stage_s`` under the same :func:`stage_key` rule the
    estimator's fold uses."""

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
        # ``sync`` feeds the estimator only and unknown stages are
        # dropped.
        assert report.stage_seconds == {
            "sample_cpu": (1, 0.1), "sample_accel": (1, 0.1),
            "load": (2, pytest.approx(0.4)),
            "train_cpu": (1, 0.4), "train_accel": (1, 0.4)}


class TestOnlineEstimator:
    def test_cold_estimator_is_exact_noop(self):
        est = OnlineEstimator(warmup=3)
        times = _times(0.02)
        est.observe({"load": 0.5}, times)   # 1 observation < warmup
        assert not est.is_warm()
        assert est.correction("load") == 1.0
        assert est.calibrate(times) is times

    @common_settings
    @given(scale=st.floats(min_value=0.5, max_value=3.0),
           noise=st.lists(st.floats(min_value=-0.05, max_value=0.05),
                          min_size=20, max_size=60),
           alpha=st.floats(min_value=0.1, max_value=0.9))
    def test_corrections_converge_under_stationary_noise(
            self, scale, noise, alpha):
        """Realized = scale x model x (1 + eps), |eps| <= 5%: the
        correction must land inside the confidence-weighted envelope
        of the true scale."""
        est = OnlineEstimator(alpha=alpha, warmup=3)
        model = _times(0.01)
        for eps in noise:
            est.observe({"load": 0.01 * scale * (1.0 + eps)}, model)
        n = len(noise)
        w = n / (n + est.warmup)
        lo = 1.0 + w * (0.95 * scale - 1.0)
        hi = 1.0 + w * (1.05 * scale - 1.0)
        c = est.correction("load")
        assert lo - 1e-9 <= c <= hi + 1e-9
        # And the calibrated field is the analytic one scaled by it.
        assert est.calibrate(model).t_load == \
            pytest.approx(0.01 * c)

    @common_settings
    @given(observations=st.lists(
        st.dictionaries(st.sampled_from(REALIZED_STAGES),
                        hostile_seconds, max_size=7),
        max_size=25),
        model_value=st.floats(min_value=0.0, max_value=1e12,
                              allow_nan=False, allow_infinity=False))
    def test_calibrated_times_always_finite_and_nonnegative(
            self, observations, model_value):
        """Whatever a plane observes — nan, inf, negatives, absurd
        magnitudes — calibration must never emit a non-finite or
        negative stage time into drm_step."""
        est = OnlineEstimator(warmup=1)
        model = _times(model_value)
        for realized in observations:
            est.observe(realized, model)
        calibrated = est.calibrate(model)
        for stage_field in ("t_sample_cpu", "t_sample_accel", "t_load",
                            "t_transfer", "t_train_cpu",
                            "t_train_accel", "t_sync"):
            v = getattr(calibrated, stage_field)
            assert math.isfinite(v) and v >= 0.0

    def test_summary_and_error_report(self):
        est = OnlineEstimator(warmup=2)
        model = _times(0.01)
        for _ in range(5):
            est.observe({"load": 0.02}, model)
        digest = est.summary()["load"]
        assert digest["warm"]
        assert digest["observations"] == 5
        assert digest["error"] == pytest.approx(0.5)   # |m - r| / r
        assert digest["correction"] > 1.0

    def test_invalid_construction_rejected(self):
        with pytest.raises(ProtocolError):
            OnlineEstimator(alpha=0.0)
        with pytest.raises(ProtocolError):
            OnlineEstimator(warmup=0)
        with pytest.raises(ProtocolError):
            OnlineEstimator(ratio_bounds=(0.0, 1.0))


class TestSettleReadings:
    def test_ewma_forgets_all_but_the_share(self):
        est = OnlineEstimator(alpha=0.3, warmup=3)
        n = est.settle_readings(0.05)
        assert n == 9
        assert 0.7 ** n <= 0.05 < 0.7 ** (n - 1)

    def test_never_fewer_than_warmup(self):
        assert OnlineEstimator(alpha=0.9, warmup=4).settle_readings(
            0.05) == 4
        assert OnlineEstimator(alpha=1.0, warmup=2).settle_readings(
            0.05) == 2


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
    """``timing_step``'s estimator hook: a cold estimator observes but
    returns bit-identical results (what lets a never-warm estimator pin
    the analytic trajectory); a warm one feeds corrected times to
    row/DRM."""

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

    def test_cold_estimator_observes_and_is_bit_identical(
            self, session_pair):
        plain, hooked = session_pair
        stats_cpu, stats_accel = self._stats(plain)
        h_cpu, h_accel = self._stats(hooked)
        est = OnlineEstimator(warmup=10)
        for _ in range(4):   # observed, but short of warm
            est.observe({"load": 123.0}, _times(0.01))
        t0, r0, s0 = plain.timing_step(stats_cpu, stats_accel, 0)
        t1, r1, s1 = hooked.timing_step(
            h_cpu, h_accel, 0, estimator=est,
            realized={"load": 123.0})
        assert est.observations("load") == 5
        assert not est.is_warm()
        assert t0 == t1
        assert r0 == r1
        assert s0 == s1

    def test_calibrate_feeds_corrected_times(self, session_pair):
        plain, hooked = session_pair
        stats_cpu, stats_accel = self._stats(plain)
        h_cpu, h_accel = self._stats(hooked)
        t0, _, _ = plain.timing_step(stats_cpu, stats_accel, 0)
        est = OnlineEstimator(warmup=1)
        scale = 3.0
        for _ in range(50):
            est.observe({"load": t0.t_load * scale}, t0)
        t1, _, _ = hooked.timing_step(
            h_cpu, h_accel, 0, estimator=est,
            realized={"load": t0.t_load * scale})
        assert t1.t_load > t0.t_load
        assert t1.t_load == pytest.approx(
            t0.t_load * est.correction("load"))

    def test_calibration_prices_the_quotas_not_the_threads(
            self, session_pair):
        """A live plane has no thread pools: under an estimator the
        model prices the split's quotas only, so two sessions whose
        splits differ in their thread counts alone calibrate to the
        same times."""
        a, b = session_pair
        b.split = b.split.with_updates(
            sample_threads=b.split.sample_threads + 8,
            load_threads=b.split.load_threads - 8)
        assert a.stage_times(*self._stats(a)) != \
            b.stage_times(*self._stats(b))
        realized = {"load": 0.01, "train_cpu": 0.02,
                    "train_accel": 0.03, "sync": 0.001}
        outs = []
        for session in (a, b):
            session.drm = None        # hold the split still
            est = OnlineEstimator(warmup=1)
            stats = self._stats(session)
            for it in range(3):
                times, _, _ = session.timing_step(
                    *stats, it, estimator=est, realized=realized)
            outs.append(times)
        assert outs[0] == outs[1]
