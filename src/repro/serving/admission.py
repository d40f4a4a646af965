"""Admission control: per-tenant credits.

Everything that can refuse a request happens *in front of* the
micro-batcher — a shed request never allocates stage work, never
touches the sampler, never holds queue space. Two independent gates:

* the pending bound — :meth:`~repro.serving.ServingSession.submit`
  sheds ``queue_full`` once the batcher's pending ledger
  (:attr:`~repro.serving.MicroBatcher.pending_requests`) holds
  ``max_pending_requests``, instead of growing an unbounded backlog;
  the bound is what keeps accepted-request latency inside the budget
  when an open-loop client offers more than the node can serve;
* :class:`CreditScheduler` — a token bucket per tenant, denominated in
  **target vertices** (the unit of stage work), refilled at
  ``rate_targets_per_s`` up to ``burst_targets``. A request whose
  target count exceeds the tenant's current balance sheds
  ``no_credit``. Conservation — a tenant's admitted work never
  exceeds refill + burst — is asserted by the serving conformance
  tier.

The scheduler uses the session's injectable clock, so it is
deterministic under a virtual clock in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass
class _Bucket:
    balance: float
    last_refill_s: float
    spent_targets: int = 0
    refilled_targets: float = 0.0


class CreditScheduler:
    """Per-tenant token buckets denominated in target vertices.

    Parameters
    ----------
    rate_targets_per_s:
        Steady-state refill rate per tenant. ``None`` disables credit
        scheduling entirely (every spend succeeds) — the single-tenant
        default.
    burst_targets:
        Bucket capacity: the largest burst a tenant can spend at once.
        Buckets start full.
    clock:
        Monotonic time source shared with the owning session.
    """

    def __init__(self, rate_targets_per_s: float | None,
                 burst_targets: int, *, clock) -> None:
        if rate_targets_per_s is not None and rate_targets_per_s <= 0:
            raise ConfigError("rate_targets_per_s must be positive "
                              "(or None to disable credits)")
        if burst_targets < 1:
            raise ConfigError("burst_targets must be >= 1")
        self.rate_targets_per_s = rate_targets_per_s
        self.burst_targets = int(burst_targets)
        self.clock = clock
        self._buckets: dict[str, _Bucket] = {}

    @property
    def enabled(self) -> bool:
        return self.rate_targets_per_s is not None

    def _bucket(self, tenant: str) -> _Bucket:
        b = self._buckets.get(tenant)
        if b is None:
            b = _Bucket(balance=float(self.burst_targets),
                        last_refill_s=self.clock())
            self._buckets[tenant] = b
        return b

    def _refill(self, b: _Bucket) -> None:
        now = self.clock()
        dt = max(0.0, now - b.last_refill_s)
        b.last_refill_s = now
        gained = dt * float(self.rate_targets_per_s)
        headroom = float(self.burst_targets) - b.balance
        credited = min(gained, headroom)
        if credited > 0:
            b.balance += credited
            b.refilled_targets += credited

    def try_spend(self, tenant: str, targets: int) -> bool:
        """Spend ``targets`` credits for ``tenant``; ``False`` means
        shed ``no_credit``. Disabled schedulers always grant."""
        if not self.enabled:
            return True
        b = self._bucket(tenant)
        self._refill(b)
        if b.balance + 1e-9 < targets:
            return False
        b.balance -= targets
        b.spent_targets += int(targets)
        return True

    def balance(self, tenant: str) -> float:
        """The tenant's current credit balance (after refill)."""
        if not self.enabled:
            return float("inf")
        b = self._bucket(tenant)
        self._refill(b)
        return b.balance

    def ledger(self) -> dict[str, dict[str, float]]:
        """Per-tenant conservation accounting: targets spent, credits
        refilled, and the burst the bucket opened with — the serving
        conformance tier asserts ``spent <= burst + refilled``."""
        return {tenant: {"spent_targets": b.spent_targets,
                         "refilled_targets": b.refilled_targets,
                         "burst_targets": float(self.burst_targets)}
                for tenant, b in self._buckets.items()}
