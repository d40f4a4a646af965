"""Typed request/response surface of the serving front door.

One :class:`InferenceRequest` asks for class predictions over a set of
target vertices. The front door answers every submission immediately
with exactly one of:

* *accepted* (``None`` from ``submit``) — the request joins the
  current micro-batch and will produce one
  :class:`InferenceResponse` when its batch completes;
* a :class:`ShedResponse` — typed load shedding. The reason is part of
  the API (clients back off differently for a full queue than for an
  exhausted tenant budget), and a shed request **never reaches the
  sampler**: shedding happens entirely at admission, before any stage
  work.

An accepted request whose micro-batch raises during execution is
answered later, from ``step``, with a ``"failed"`` :class:`ShedResponse`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: The closed set of shed reasons: four from the admission path, plus
#: ``"failed"`` from ``step`` for an accepted request whose batch raised.
SHED_REASONS = ("queue_full", "no_credit", "closed", "invalid", "failed")


@dataclass(frozen=True)
class InferenceRequest:
    """One client request: predict classes for ``targets``.

    ``arrival_s`` is the request's arrival timestamp on the session
    clock — for open-loop load generation it is the *scheduled* arrival
    (latency then includes any queueing delay the server imposed, which
    is what an open-loop benchmark must measure).
    """

    request_id: int
    tenant: str
    targets: np.ndarray
    arrival_s: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "targets",
            np.asarray(self.targets, dtype=np.int64).reshape(-1))

    @property
    def num_targets(self) -> int:
        return int(self.targets.size)


@dataclass(frozen=True)
class InferenceResponse:
    """One completed request: per-target predicted classes plus the
    latency split the serving report aggregates."""

    request_id: int
    tenant: str
    predictions: np.ndarray
    #: Completion timestamp on the session clock.
    completed_s: float
    #: End-to-end latency: completion − arrival (queueing included).
    latency_s: float
    #: The micro-batch this request rode in (audit trail for the
    #: conformance kit's no-drop/no-duplicate checks).
    batch_seq: int

    @property
    def num_targets(self) -> int:
        return int(self.predictions.size)


@dataclass(frozen=True)
class ShedResponse:
    """A typed rejection, from the admission path or a failed batch.

    ``reason`` is one of :data:`SHED_REASONS`:

    * ``"queue_full"`` — the bounded pending queue is at capacity;
    * ``"no_credit"`` — the tenant's credit bucket cannot cover the
      request's target count right now;
    * ``"closed"`` — the session is shut down;
    * ``"invalid"`` — a target id lies outside ``[0, num_vertices)``;
    * ``"failed"`` — the request was accepted, but executing its
      micro-batch raised (returned by ``step``, not ``submit``; its
      credits are not refunded).
    """

    request_id: int
    tenant: str
    reason: str
    #: Shed timestamp on the session clock.
    shed_s: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.reason not in SHED_REASONS:
            raise ValueError(
                f"unknown shed reason {self.reason!r}; "
                f"expected one of {list(SHED_REASONS)}")
