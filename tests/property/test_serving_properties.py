"""Property-based tests (hypothesis) on the serving front door.

The micro-batcher and the admission gates are the pieces of the
serving plane with real invariants rather than tuning: whatever the
arrival pattern,

* every accepted request lands in **exactly one** flushed batch
  (coalescing may reorder work across batch boundaries, never lose or
  duplicate a request);
* a batch's flush deadline is its open time plus the coalesce window,
  which the config bounds by the latency budget — so no accepted
  request waits in the batcher longer than the budget allows;
* a shed request never reaches the sampler: shedding happens entirely
  in the front door, so the sampler is invoked exactly once per
  *flushed batch*, never for refused work;
* the executor is work-conserving: a ``step()`` with anything pending
  answers something, without waiting out the coalesce window.

All are exercised on a hand-cranked virtual clock, so deadline
behavior is deterministic under hypothesis shrinking.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import TrainingConfig
from repro.graph.datasets import tiny_dataset
from repro.serving import (
    InferenceRequest,
    MicroBatcher,
    ServingConfig,
    ServingSession,
    VirtualClock,
)

common_settings = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])

session_settings = settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large])


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: One arrival: (gap since the previous arrival in ms, target count).
arrivals = st.lists(
    st.tuples(st.floats(0.0, 40.0, allow_nan=False),
              st.integers(1, 12)),
    min_size=1, max_size=60)


#: One batcher operation: offer a request of ``n`` targets, advance
#: the clock ``ms`` and poll, flush, or take up to ``k`` batches.
batcher_ops = st.lists(
    st.one_of(st.tuples(st.just("offer"), st.integers(1, 12)),
              st.tuples(st.just("poll"),
                        st.floats(0.0, 40.0, allow_nan=False)),
              st.tuples(st.just("flush"), st.just(0)),
              st.tuples(st.just("take"), st.integers(0, 3))),
    min_size=1, max_size=60)


def _drive(batcher: MicroBatcher, clock: VirtualClock,
           schedule) -> list:
    """Offer the schedule, polling as the clock advances; returns all
    flushed batches (tail force-flushed)."""
    batches = list(batcher.take(len(schedule)))
    for rid, (gap_ms, num_targets) in enumerate(schedule):
        clock.advance(gap_ms / 1e3)
        batcher.poll()
        batches.extend(batcher.take(len(schedule)))
        targets = np.arange(num_targets, dtype=np.int64)
        batcher.offer(InferenceRequest(
            request_id=rid, tenant="t", targets=targets,
            arrival_s=clock()))
        batches.extend(batcher.take(len(schedule)))
    batcher.flush()
    batches.extend(batcher.take(len(schedule)))
    return batches


class TestMicroBatcherProperties:
    @common_settings
    @given(schedule=arrivals,
           window_ms=st.floats(1.0, 100.0, allow_nan=False),
           max_batch_targets=st.integers(1, 48))
    def test_every_accepted_request_in_exactly_one_batch(
            self, schedule, window_ms, max_batch_targets):
        clock = VirtualClock()
        batcher = MicroBatcher(window_ms / 1e3, max_batch_targets,
                               clock=clock)
        batches = _drive(batcher, clock, schedule)
        served = [r.request_id for b in batches for r in b.requests]
        assert sorted(served) == list(range(len(schedule)))
        assert batcher.pending_requests == 0
        # Every flushed batch was taken, each once, in flush order.
        assert [b.seq for b in batches] == list(range(len(batches)))
        assert batcher.ready_batches == 0

    @common_settings
    @given(schedule=arrivals,
           window_ms=st.floats(1.0, 100.0, allow_nan=False),
           max_batch_targets=st.integers(1, 48))
    def test_flush_deadline_within_coalesce_window(
            self, schedule, window_ms, max_batch_targets):
        window_s = window_ms / 1e3
        clock = VirtualClock()
        batcher = MicroBatcher(window_s, max_batch_targets,
                               clock=clock)
        eps = 1e-12
        for b in _drive(batcher, clock, schedule):
            # The deadline contract: window after open, never more.
            assert b.deadline_s - b.opened_s <= window_s + eps
            # Deadline-driven flushes land at most one poll gap past
            # the deadline; size- and force-flushes land earlier.
            gap_bound = max((g for g, _ in schedule), default=0.0) / 1e3
            assert b.flushed_s <= b.deadline_s + gap_bound + eps

    @common_settings
    @given(ops=batcher_ops,
           window_ms=st.floats(1.0, 100.0, allow_nan=False),
           max_batch_targets=st.integers(1, 48))
    def test_pending_is_offered_minus_taken(self, ops, window_ms,
                                            max_batch_targets):
        """The running count never drifts from its definition: a
        flush, by size, deadline or consumer, moves requests from the
        open batch to the ready queue without touching it."""
        clock = VirtualClock()
        batcher = MicroBatcher(window_ms / 1e3, max_batch_targets,
                               clock=clock)
        offered = taken = 0
        for op, arg in ops:
            before = batcher.pending_requests
            if op == "offer":
                batcher.offer(InferenceRequest(
                    request_id=offered, tenant="t",
                    targets=np.arange(arg, dtype=np.int64),
                    arrival_s=clock()))
                offered += 1
            elif op == "poll":
                clock.advance(arg / 1e3)
                batcher.poll()
            elif op == "flush":
                batcher.flush()
            else:
                taken += sum(len(b) for b in batcher.take(arg))
            if op in ("poll", "flush"):
                assert batcher.pending_requests == before
            assert batcher.pending_requests == offered - taken
        batcher.flush()
        taken += sum(len(b) for b in batcher.take())
        assert taken == offered and batcher.pending_requests == 0

    def test_pending_counts_the_open_batch(self):
        batcher = MicroBatcher(0.05, 64, clock=VirtualClock())
        for rid in range(3):
            batcher.offer(InferenceRequest(
                request_id=rid, tenant="t",
                targets=np.arange(2, dtype=np.int64), arrival_s=0.0))
        assert (batcher.ready_batches, batcher.pending_requests) == (0, 3)
        batcher.flush()
        assert (batcher.ready_batches, batcher.pending_requests) == (1, 3)
        assert batcher.take(0) == []
        assert batcher.pending_requests == 3
        (batch,) = batcher.take(1)
        assert len(batch) == 3 and batcher.pending_requests == 0

    def test_window_bounded_by_latency_budget(self):
        # The config is where "deadline <= budget" is enforced; the
        # batcher then never sets a deadline beyond it.
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            ServingConfig(latency_budget_s=0.1, coalesce_window_s=0.2)
        cfg = ServingConfig(latency_budget_s=0.1)
        assert cfg.window_s <= cfg.latency_budget_s


# ---------------------------------------------------------------------------
# Shed requests never reach the sampler
# ---------------------------------------------------------------------------

_DS = tiny_dataset(num_vertices=200, feature_dim=8, num_classes=3,
                   avg_degree=6.0, seed=13)
_CFG = TrainingConfig(model="sage", minibatch_size=16, fanouts=(3, 2),
                      hidden_dim=8, learning_rate=0.05, seed=11)


def _session(clock: VirtualClock, **config) -> ServingSession:
    """A serving session on ``clock``."""
    return ServingSession(
        _DS, _CFG,
        config=ServingConfig(latency_budget_s=0.2, **config),
        clock=clock)


def _spy_sampler(session: ServingSession) -> list:
    """Record the target list of every sampler call on ``session``."""
    sampler = session.pipeline.sampler
    calls = []
    inner = sampler.sample
    sampler.sample = lambda targets: (
        calls.append(np.asarray(targets).tolist()), inner(targets))[1]
    return calls


class TestShedNeverSamples:
    @session_settings
    @given(num_requests=st.integers(1, 30),
           max_pending=st.integers(1, 4),
           step_every=st.integers(1, 8))
    def test_sampler_called_once_per_flushed_batch_only(
            self, num_requests, max_pending, step_every):
        clock = VirtualClock()
        session = ServingSession(
            _DS, _CFG,
            config=ServingConfig(latency_budget_s=0.2,
                                 max_batch_targets=8,
                                 max_pending_requests=max_pending),
            clock=clock)
        sampler = session.pipeline.sampler
        calls = []
        inner = sampler.sample
        sampler.sample = lambda targets: (
            calls.append(np.asarray(targets).size), inner(targets))[1]

        rng = np.random.default_rng(5)
        shed = 0
        for _ in range(num_requests):
            targets = rng.choice(_DS.train_ids, size=4, replace=False)
            if session.submit(targets) is not None:
                shed += 1
            clock.advance(0.001)
            if (len(calls) + 1) % step_every == 0:
                session.step()
        clock.advance(1.0)
        session.drain()
        report = session.close()

        assert report.accepted + shed == num_requests
        # Exactly one sampler invocation per flushed batch — shed
        # requests did no stage work at all.
        assert len(calls) == len(session.report.batch_sizes)
        assert report.completed == report.accepted

    def test_out_of_range_ids_shed_without_touching_the_batch(self):
        """The front-door regression (ROADMAP item 4a): a bad vertex
        id used to raise a bare IndexError from the sampler mid-batch,
        losing the valid co-batched request and leaking its admission
        slot forever. Now it is a typed ``invalid`` shed issued before
        any credit is spent or slot admitted."""
        clock = VirtualClock()
        session = _session(clock, credit_rate_targets_per_s=100.0,
                           credit_burst_targets=16)
        calls = _spy_sampler(session)

        assert session.submit([1, 2]) is None
        too_big = session.submit([10**9])
        negative = session.submit([-1])
        assert too_big.reason == negative.reason == "invalid"
        clock.advance(1.0)
        responses = session.drain()

        assert [r.request_id for r in responses] == [0]
        assert session.batcher.pending_requests == 0
        assert calls == [[1, 2]]          # never sampled for bad work
        report = session.close()
        assert report.accepted == report.completed == 1
        assert report.shed == {"invalid": 2}
        # The ledger still conserves: only the valid request spent.
        assert session.credits.ledger()["default"]["spent_targets"] == 2

    @pytest.mark.parametrize("bad", [[1.7, 2.2], [[1, 2], [3, 4]], []],
                             ids=["fractional", "nested", "empty"])
    def test_non_integer_or_nested_ids_shed_before_the_cast(self, bad):
        """Fractional ids used to be truncated into real vertices (1.7
        served as vertex 1) and nested lists flattened, both accepted;
        an empty request raised out of ``submit`` after its request id
        was spent, so it was neither answered nor offered. All are
        typed ``invalid`` sheds now, before any credit or admission
        slot is spent."""
        session = _session(VirtualClock(),
                           credit_rate_targets_per_s=100.0,
                           credit_burst_targets=16)
        calls = _spy_sampler(session)
        assert session.submit([1, 2]) is None
        ledger = session.credits.ledger()

        shed = session.submit(bad)
        assert shed is not None and shed.reason == "invalid"
        assert shed.request_id == 1
        assert session.credits.ledger() == ledger
        assert session.batcher.pending_requests == 1
        assert session.submit([3]) is None
        assert [r.request_id for r in session.drain()] == [0, 2]
        assert calls == [[1, 2, 3]]       # never sampled for bad work
        report = session.close()
        assert report.shed == {"invalid": 1}
        assert report.offered == 3


#: A random submit/step interleaving: a submit of that many targets,
#: or ``None`` for a step.
interleavings = st.lists(st.one_of(st.none(), st.integers(1, 6)),
                         min_size=1, max_size=40)


class TestWorkConservation:
    """An idle executor flushes the open micro-batch instead of waiting
    out the coalesce window. Every test runs on a clock that is never
    advanced, so no deadline ever fires: whatever a step answers, work
    conservation answered it."""

    def test_one_request_is_answered_by_the_next_step(self):
        session = _session(VirtualClock())
        assert session.submit(_DS.train_ids[:3]) is None
        (response,) = session.step()
        assert response.request_id == 0
        assert response.predictions.shape == (3,)
        assert session.batcher.pending_requests == 0

    def test_requests_submitted_before_a_step_ride_one_batch(self):
        session = _session(VirtualClock(), max_batch_targets=64)
        k = 5
        for i in range(k):
            assert session.submit(_DS.train_ids[2 * i:2 * i + 2]) is None
        responses = session.step()
        assert sorted(r.request_id for r in responses) == list(range(k))
        assert {r.batch_seq for r in responses} == {0}
        assert session.report.batch_sizes[-1] == k

    def test_open_batch_keeps_collecting_behind_a_backlog(self):
        # Depth 1, and two size-flushed batches ahead of a partial
        # open one: each step takes the oldest ready batch, and the
        # open batch stays open (and keeps collecting) until the
        # backlog is gone.
        session = _session(VirtualClock(), max_batch_targets=4,
                           max_depth=1)
        ids = _DS.train_ids
        for targets in (ids[0:4], ids[4:8], ids[8:9]):
            assert session.submit(targets) is None
        assert session.batcher.ready_batches == 2

        assert [r.request_id for r in session.step()] == [0]
        assert session.submit(ids[9:10]) is None
        assert session.batcher.pending_requests == 3
        assert [r.request_id for r in session.step()] == [1]
        assert session.batcher.ready_batches == 0
        assert session.batcher.pending_requests == 2   # still open

        last = session.step()
        assert [r.request_id for r in last] == [2, 3]
        assert {r.batch_seq for r in last} == {2}
        assert session.report.batch_sizes == [1, 1, 2]

    @session_settings
    @given(ops=interleavings,
           max_batch_targets=st.integers(1, 12),
           max_depth=st.integers(1, 3))
    def test_every_step_with_pending_work_answers(
            self, ops, max_batch_targets, max_depth):
        session = _session(VirtualClock(),
                           max_batch_targets=max_batch_targets,
                           max_pending_requests=16, max_depth=max_depth)
        rng = np.random.default_rng(0)
        answered = 0
        for op in ops:
            if op is None:
                pending = session.batcher.pending_requests
                responses = session.step()
                assert bool(responses) == (pending > 0)
                answered += len(responses)
            else:
                session.submit(rng.choice(_DS.train_ids, size=op,
                                          replace=False))
        answered += len(session.drain())
        report = session.close()
        assert answered == report.accepted == report.completed
        assert session.batcher.pending_requests == 0
