"""Fused-plane units: the bounded look-ahead dealer and its
partition/bound invariants, the report's coverage defaults and the
worker body's look-ahead queue.

The fused backend's correctness rests on sequencing logic that the
integration matrix exercises but cannot isolate: the
:class:`~repro.runtime.LookaheadDealer` window that deals plan shards
ahead of synchronization. Its contract — dealing ahead changes *when*
shards are dealt, never *which* or in what order, and the in-flight
count never exceeds the window — is pinned here as hypothesis
properties over random quota/seed/depth draws.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.runtime import LookaheadDealer, RunReport
from repro.runtime.core import BatchPlan

common_settings = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def dealer_inputs(draw, max_train=200, max_trainers=5, max_quota=40,
                  max_depth=6):
    """A plan configuration plus a look-ahead window."""
    n = draw(st.integers(1, max_train))
    train_ids = np.arange(n, dtype=np.int64)
    k = draw(st.integers(1, max_trainers))
    quotas = draw(st.lists(st.integers(0, max_quota), min_size=k,
                           max_size=k).filter(lambda q: sum(q) > 0))
    seed = draw(st.integers(0, 10**6))
    depth = draw(st.integers(1, max_depth))
    return train_ids, quotas, seed, depth


def _drain(plan: BatchPlan, iterations: int, depth: int):
    """Drive a LookaheadDealer to exhaustion, recording dealt shards in
    deal order and retired iterations in retire order."""
    dealer = LookaheadDealer(plan.iterate(iterations), depth)
    dealt: list[np.ndarray] = []
    retired: list[int] = []

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
        assert dealer.in_flight + 1 <= depth
        retired.append(entry[0])
        record(dealer.refill())
    return dealer, dealt, retired


class TestLookaheadDealer:
    @common_settings
    @given(dealer_inputs())
    def test_dealt_shards_are_the_epoch_permutation(self, data):
        """Concatenated in deal order, the shards ARE the epoch
        permutation — order included — at any window. Look-ahead must
        never lose, duplicate, or reorder plan work."""
        train_ids, quotas, seed, depth = data
        plan = BatchPlan(train_ids, lambda: quotas,
                         np.random.default_rng(seed))
        iters = sum(1 for _ in BatchPlan(
            train_ids, lambda: quotas,
            np.random.default_rng(seed)).start_epoch())
        _, dealt, _ = _drain(plan, iters, depth)
        expected = np.random.default_rng(seed).permutation(train_ids)
        np.testing.assert_array_equal(np.concatenate(dealt), expected)

    @common_settings
    @given(dealer_inputs())
    def test_in_flight_never_exceeds_the_cap(self, data):
        """The bounded-queue property: the number of
        dealt-but-unsynchronized iterations never exceeds the
        window."""
        train_ids, quotas, seed, depth = data
        plan = BatchPlan(train_ids, lambda: quotas,
                         np.random.default_rng(seed))
        dealer, _, _ = _drain(plan, 3, depth)
        assert dealer.high_water <= depth

    @common_settings
    @given(dealer_inputs())
    def test_retirement_order_is_plan_order(self, data):
        """Iterations retire strictly in plan order — the sync tail
        (all-reduce, DRM) sees the same sequence as lock-step."""
        train_ids, quotas, seed, depth = data
        plan = BatchPlan(train_ids, lambda: quotas,
                         np.random.default_rng(seed))
        _, _, retired = _drain(plan, 4, depth)
        assert retired == list(range(len(retired)))

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

    def load_codes(self, mb, kind):
        self.calls.append(("load", mb))
        return mb, None

    def labels_for(self, mb):
        return mb

    def train(self, mb, x0, labels, stage_s, row_scales):
        assert set(stage_s) == {"sample", "load"}
        assert x0 == mb and row_scales is None
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
