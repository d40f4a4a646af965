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
  *flushed batch*, never for refused work.

All three are exercised on a hand-cranked virtual clock, so deadline
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
        assert batcher.flushed_requests == len(schedule)
        assert batcher.flushed_batches == len(batches)

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
        assert len(calls) == session.batcher.flushed_batches
        assert report.completed == report.accepted

    def test_out_of_range_ids_shed_without_touching_the_batch(self):
        """The front-door regression (ROADMAP item 4a): a bad vertex
        id used to raise a bare IndexError from the sampler mid-batch,
        losing the valid co-batched request and leaking its admission
        slot forever. Now it is a typed ``invalid`` shed issued before
        any credit is spent or slot admitted."""
        clock = VirtualClock()
        session = ServingSession(
            _DS, _CFG,
            config=ServingConfig(latency_budget_s=0.2,
                                 credit_rate_targets_per_s=100.0,
                                 credit_burst_targets=16),
            clock=clock)
        sampler = session.pipeline.sampler
        calls = []
        inner = sampler.sample
        sampler.sample = lambda targets: (
            calls.append(np.asarray(targets).tolist()),
            inner(targets))[1]

        assert session.submit([1, 2]) is None
        too_big = session.submit([10**9])
        negative = session.submit([-1])
        assert too_big.reason == negative.reason == "invalid"
        clock.advance(1.0)
        responses = session.drain()

        assert [r.request_id for r in responses] == [0]
        assert session.admission.pending == 0
        assert calls == [[1, 2]]          # never sampled for bad work
        report = session.close()
        assert report.accepted == report.completed == 1
        assert report.shed == {"invalid": 2}
        # The ledger still conserves: only the valid request spent.
        assert session.credits.ledger()["default"]["spent_targets"] == 2
