"""Fused-plane units: the bounded look-ahead dealer and its
partition/bound invariants, the report's coverage defaults, the depth
knobs, the look-ahead trajectories and the worker body's look-ahead
queue.

The fused backend's correctness rests on sequencing logic that the
integration matrix exercises but cannot isolate: the
:class:`~repro.runtime.LookaheadDealer` window that deals plan shards
ahead of synchronization. Its contract — dealing ahead changes *when*
shards are dealt, never *which* or in what order, and the in-flight
count never exceeds the adaptive cap — is pinned here as hypothesis
properties over random quota/seed/depth schedules.
"""

import pathlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.runtime import LookaheadDealer, RunReport
from repro.runtime.core import BatchPlan

# The conformance kit's helper, shared rather than copied (the same
# directory pytest puts on the path for the integration suite).
sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "integration"))
from backend_conformance import analytic_lookahead  # noqa: E402

common_settings = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def dealer_inputs(draw, max_train=200, max_trainers=5, max_quota=40,
                  max_cap=6):
    """A plan configuration plus a random adaptive-depth schedule."""
    n = draw(st.integers(1, max_train))
    train_ids = np.arange(n, dtype=np.int64)
    k = draw(st.integers(1, max_trainers))
    quotas = draw(st.lists(st.integers(0, max_quota), min_size=k,
                           max_size=k).filter(lambda q: sum(q) > 0))
    seed = draw(st.integers(0, 10**6))
    cap = draw(st.integers(1, max_cap))
    # One candidate depth per retirement; the dealer is resized with
    # the next schedule entry after each retire (the adaptive policy).
    depths = draw(st.lists(st.integers(1, cap), min_size=1,
                           max_size=64))
    return train_ids, quotas, seed, cap, depths


def _drain(plan: BatchPlan, iterations: int, depths: list[int],
           cap: int):
    """Drive a LookaheadDealer to exhaustion, recording dealt shards in
    deal order and retired iterations in retire order."""
    dealer = LookaheadDealer(plan.iterate(iterations), depths[0])
    dealt: list[np.ndarray] = []
    retired: list[int] = []
    step = 0

    def record(pairs):
        for _, planned in pairs:
            for a in planned.assignments:
                if a is not None:
                    dealt.append(a)

    record(dealer.refill())
    while True:
        entry = dealer.retire()
        if entry is None:
            break
        assert dealer.in_flight + 1 <= cap
        retired.append(entry[0])
        step += 1
        dealer.set_depth(depths[step % len(depths)])
        record(dealer.refill())
    return dealer, dealt, retired


class TestLookaheadDealer:
    @common_settings
    @given(dealer_inputs())
    def test_dealt_shards_are_the_epoch_permutation(self, data):
        """Concatenated in deal order, the shards ARE the epoch
        permutation — order included — no matter how the window
        grows or shrinks mid-epoch. Look-ahead must never lose,
        duplicate, or reorder plan work."""
        train_ids, quotas, seed, cap, depths = data
        plan = BatchPlan(train_ids, lambda: quotas,
                         np.random.default_rng(seed))
        iters = sum(1 for _ in BatchPlan(
            train_ids, lambda: quotas,
            np.random.default_rng(seed)).start_epoch())
        _, dealt, _ = _drain(plan, iters, depths, cap)
        expected = np.random.default_rng(seed).permutation(train_ids)
        np.testing.assert_array_equal(np.concatenate(dealt), expected)

    @common_settings
    @given(dealer_inputs())
    def test_in_flight_never_exceeds_the_cap(self, data):
        """The bounded-queue property: however the adaptive schedule
        resizes the window, the number of dealt-but-unsynchronized
        iterations never exceeds the cap the schedule draws from."""
        train_ids, quotas, seed, cap, depths = data
        plan = BatchPlan(train_ids, lambda: quotas,
                         np.random.default_rng(seed))
        dealer, _, _ = _drain(plan, 3, depths, cap)
        assert dealer.high_water <= cap

    @common_settings
    @given(dealer_inputs())
    def test_retirement_order_is_plan_order(self, data):
        """Iterations retire strictly in plan order — the sync tail
        (all-reduce, DRM) sees the same sequence as lock-step."""
        train_ids, quotas, seed, cap, depths = data
        plan = BatchPlan(train_ids, lambda: quotas,
                         np.random.default_rng(seed))
        _, _, retired = _drain(plan, 4, depths, cap)
        assert retired == list(range(len(retired)))

    def test_shrinking_never_revokes_dealt_work(self):
        """Shrinking the window below the in-flight count only
        throttles refills; everything already dealt still retires."""
        train_ids = np.arange(64, dtype=np.int64)
        plan = BatchPlan(train_ids, lambda: [8],
                         np.random.default_rng(0))
        dealer = LookaheadDealer(plan.iterate(8), 4)
        assert len(dealer.refill()) == 4
        dealer.set_depth(1)
        assert dealer.refill() == []          # over-full: no refill
        assert dealer.in_flight == 4          # nothing revoked
        for expected_it in range(4):
            it, _ = dealer.retire()
            assert it == expected_it
            # Still over- or exactly full until the window drains
            # below the new depth; only then does dealing resume.
            drained = dealer.in_flight < 1
            assert len(dealer.refill()) == (1 if drained else 0)

    def test_exhausted_dealer_returns_none(self):
        train_ids = np.arange(16, dtype=np.int64)
        plan = BatchPlan(train_ids, lambda: [16],
                         np.random.default_rng(0))
        dealer = LookaheadDealer(plan.iterate(1), 2)
        dealer.refill()
        assert dealer.retire() is not None
        assert dealer.retire() is None
        assert dealer.refill() == []

    def test_invalid_depth_rejected(self):
        train_ids = np.arange(16, dtype=np.int64)
        plan = BatchPlan(train_ids, lambda: [8],
                         np.random.default_rng(0))
        with pytest.raises(ProtocolError):
            LookaheadDealer(plan.iterate(1), 0)
        dealer = LookaheadDealer(plan.iterate(1), 1)
        with pytest.raises(ProtocolError):
            dealer.set_depth(0)


class TestOverlapReport:
    def test_coverage_evidence_defaults_to_absent(self):
        """The statistical tier and ``bench_e2e`` read coverage fields
        as *present iff not None*: a plane that never records targets
        must not look like one that trained zero of them."""
        rep = RunReport(iterations=1, num_workers=2)
        assert rep.trained_targets is None
        assert rep.worker_targets is None
        assert rep.shard_parts is None
        assert rep.shard_io == [] and rep.kernel_stats == {}


class TestDepthDefaults:
    def test_default_construction_accepts_deep_prefetch(self, tiny_ds):
        """A session with ``prefetch_depth`` above the historical cap
        of 8 is valid config; default construction of either
        overlapped backend must widen the cap rather than raise (an
        explicitly-passed smaller cap still fails loudly)."""
        from repro.config import SystemConfig, TrainingConfig
        from repro.runtime import (
            PipelinedBackend,
            ProcessPipelinedBackend,
            TrainingSession,
        )
        cfg = TrainingConfig(model="sage", minibatch_size=32,
                             fanouts=(4, 3), hidden_dim=16,
                             learning_rate=0.05, seed=11)
        session = TrainingSession(
            tiny_ds, cfg,
            SystemConfig(hybrid=True, drm=False, prefetch=True,
                         prefetch_depth=12),
            num_trainers=2)
        for cls in (PipelinedBackend, ProcessPipelinedBackend):
            backend = cls(session)
            assert backend.lookahead.depth == 12
            assert backend.lookahead.max_depth == 12
            with pytest.raises(ProtocolError):
                cls(session, max_depth=8)


class TestLookaheadTrajectories:
    """The look-ahead trajectory on both overlapped planes: with a
    cold estimator (:func:`analytic_lookahead`) the depth history is
    the analytic replay bit for bit (recomputable from the report's own
    stage history); by default a timing session seeds iteration 0 from
    the floor instead of the configured depth (no realized signal
    exists yet — the iteration-0 depth bugfix)."""

    def _session(self, tiny_ds, fpga_platform, prefetch_depth=2):
        from repro.config import SystemConfig, TrainingConfig
        from repro.runtime import TrainingSession
        cfg = TrainingConfig(model="sage", minibatch_size=32,
                             fanouts=(4, 3), hidden_dim=16,
                             learning_rate=0.05, seed=11)
        return TrainingSession(
            tiny_ds, cfg,
            SystemConfig(hybrid=True, drm=True, prefetch=True,
                         prefetch_depth=prefetch_depth),
            fpga_platform, profile_probes=2)

    @staticmethod
    def _oracle_trajectory(first, cap, stage_history):
        """Replay the adaptive policy over the reported analytic stage
        times — the exact pre-calibration trajectory semantics."""
        from repro.runtime import adaptive_depth
        depth = first
        history = [(0, depth)]
        for it, times in enumerate(stage_history):
            want = adaptive_depth(times, cap=cap)
            if want != depth:
                history.append((it + 1, want))
                depth = want
        return history

    @pytest.mark.parametrize("backend_name",
                             ["pipelined", "process_pipelined"])
    def test_cold_estimator_trajectory_is_the_analytic_replay(
            self, backend_name, tiny_ds, fpga_platform, monkeypatch):
        from repro.runtime import get_backend
        session = self._session(tiny_ds, fpga_platform)
        backend = get_backend(backend_name)(
            session, timeout_s=60, max_depth=4)
        analytic_lookahead(backend, monkeypatch)
        rep = backend.run_epoch()
        oracle = self._oracle_trajectory(2, 4, rep.stage_history)
        # The fused plane resizes the dealer one retirement later than
        # it computes `want`, but records at the same (it + 1) keys —
        # both planes' histories must equal the analytic replay.
        assert rep.depth_history == oracle

    @pytest.mark.parametrize("backend_name",
                             ["pipelined", "process_pipelined"])
    def test_timing_session_seeds_from_the_floor(
            self, backend_name, tiny_ds, fpga_platform):
        from repro.runtime import get_backend
        session = self._session(tiny_ds, fpga_platform, prefetch_depth=3)
        backend = get_backend(backend_name)(
            session, timeout_s=60, max_depth=4)
        rep = backend.run_epoch()
        assert rep.depth_history[0] == (0, 1)

    def test_warm_estimator_seeds_calibrated_depth(self, tiny_ds,
                                                   fpga_platform):
        """A second run on the same backend instance starts from the
        calibrated steady-state estimate, not the floor — the warm
        branch of ``seed_depth``."""
        from repro.runtime import get_backend
        from repro.runtime import adaptive_depth, seed_depth
        session = self._session(tiny_ds, fpga_platform, prefetch_depth=3)
        backend = get_backend("pipelined")(
            session, timeout_s=60, max_depth=4)
        backend.run_epoch()
        assert backend.lookahead.estimator.is_warm()
        expected = adaptive_depth(
            backend.lookahead.estimator.calibrate(session.stage_times(None, None)),
            cap=4)
        assert seed_depth(session, 4,
                          backend.lookahead.estimator) == expected


class _RecordingReplica:
    """The replica surface the worker body drives, recording each
    stage call in order (``("load", it)`` and so on); a work item is
    just its iteration number."""

    class spec:
        index = 0
        kind = "accel"

    def __init__(self) -> None:
        self.calls: list[tuple] = []
        self.last_trained: int | None = None

    def sample(self, work):
        self.calls.append(("sample", work))
        return work

    def load(self, mb, kind):
        self.calls.append(("load", mb))
        return mb

    def labels_for(self, mb):
        return mb

    def train(self, mb, x0, labels, stage_s):
        assert set(stage_s) == {"sample", "load"}
        self.calls.append(("train", mb))
        self.last_trained = mb
        return f"reply{mb}"

    def apply(self):
        self.calls.append(("apply", self.last_trained))


class _Pipe:
    def __init__(self) -> None:
        self.sent: list[tuple] = []

    def send(self, msg) -> None:
        self.sent.append(msg)


class TestInlineBody:
    """The one worker body under look-ahead dealing, driven in-process:
    a dealt item is sampled and loaded when it arrives, queued, and
    trained and answered only once the previous iteration's update is
    applied."""

    def _body(self):
        from repro.runtime.backends.process import InlineBody
        conn, replica = _Pipe(), _RecordingReplica()
        return InlineBody(conn, replica), conn, replica

    def test_lockstep_loads_train_and_answer_at_once(self):
        body, conn, replica = self._body()
        for it in range(3):
            body.train(it, it)
            assert conn.sent[-1] == ("result", it, f"reply{it}")
            body.apply(it)
        assert [c for c in replica.calls if c[0] == "load"] == \
            [("load", it) for it in range(3)]

    def test_queued_loads_run_ahead_of_their_answers(self):
        """A load dealt behind an unapplied iteration runs at once; its
        answer waits for the previous apply."""
        body, conn, replica = self._body()
        for it in range(3):
            body.train(it, it)
        assert [c for c in replica.calls if c[0] == "load"] == \
            [("load", 0), ("load", 1), ("load", 2)]
        assert conn.sent == [("result", 0, "reply0")]
        body.apply(0)
        body.apply(1)
        body.train(3, 3)          # queue drained, 2 awaits: still queued
        body.apply(2)
        body.apply(3)
        body.train(4, 4)          # nothing awaits: trains at once
        assert [c[1] for c in replica.calls if c[0] == "load"] == \
            [0, 1, 2, 3, 4]

    def test_each_item_trains_only_after_the_previous_apply(self):
        """Sample and load run ahead; train ``i + 1`` follows apply
        ``i``, and every answer goes out in iteration order."""
        body, conn, replica = self._body()
        for it in range(3):
            body.train(it, it)
        for it in range(3):
            body.apply(it)
        assert replica.calls == [
            ("sample", 0), ("load", 0), ("train", 0),
            ("sample", 1), ("load", 1),
            ("sample", 2), ("load", 2),
            ("apply", 0), ("train", 1),
            ("apply", 1), ("train", 2),
            ("apply", 2)]
        assert [m[:2] for m in conn.sent] == \
            [("result", 0), ("result", 1), ("result", 2)]
        assert body.awaiting is None and not body.queue

    def test_idle_tokens_keep_their_place_in_the_queue(self):
        """An idle iteration is answered in turn like a result, and
        its ``apply`` is awaited before the next item trains."""
        body, conn, replica = self._body()
        body.train(0, 0)
        body.train(1, None)
        body.train(2, 2)
        assert conn.sent == [("result", 0, "reply0")]
        body.apply(0)
        assert conn.sent[-1] == ("idle", 1)
        assert ("train", 2) not in replica.calls
        body.apply(1)
        assert conn.sent[-1] == ("result", 2, "reply2")
        assert [c for c in replica.calls if c[0] == "sample"] == \
            [("sample", 0), ("sample", 2)]

    def test_apply_for_an_unanswered_iteration_is_protocol_error(self):
        """``apply`` names the one answered iteration: before any
        answer, or for an item still queued, it is refused and the
        replica is not stepped."""
        body, conn, replica = self._body()
        with pytest.raises(ProtocolError, match="expected None"):
            body.apply(0)
        body.train(0, 0)
        body.train(1, 1)
        with pytest.raises(ProtocolError, match="iteration 1, expected 0"):
            body.apply(1)
        assert not any(c[0] == "apply" for c in replica.calls)
        assert conn.sent == [("result", 0, "reply0")]
