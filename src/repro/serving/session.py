"""The serving session: micro-batched inference over the runtime stack.

:class:`ServingSession` is the online counterpart of
:class:`~repro.runtime.core.TrainingSession`, composed from the same
parts the redesign extracted for exactly this purpose:

* the same :class:`~repro.runtime.stage_pipeline.StagePipeline`
  (sampler via the registry → gather kernel → wire-table decode for
  an accelerator device) prepares each micro-batch, so serving exercises the
  identical hot path the training backends run;
* it carries its own session-scoped
  :class:`~repro.kernels.KernelCounters` handle, so a serving session
  and a co-tenant training session never interleave kernel stats.

The request lifecycle (single-threaded by design — the owner's serve
loop drives ``submit``/``step``; determinism is what the conformance
tier and the property tests buy with that):

``submit`` → admission (``closed`` / ``invalid`` / ``queue_full`` /
``no_credit`` typed sheds, *before* any stage work) → micro-batcher (size
flush; a partial batch waiting behind a backlog is sealed by the
coalesce deadline) → ``step`` (work-conserving: with no sealed batch
ready it flushes the open one; then up to ``max_depth`` batches, one
after another: stage pipeline → model forward → per-request
responses; a batch whose execution raises answers each member with a
``failed`` response).

The batcher's :attr:`~repro.serving.MicroBatcher.pending_requests` is
the one pending ledger: ``submit`` bounds it, ``drain`` and the load
generator wait on it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import SystemConfig, TrainingConfig, layer_dims
from ..errors import ConfigError, SamplingError
from ..graph.datasets import GraphDataset
from ..kernels import KernelCounters, scoped_counters
from ..nn.models import build_model
from ..runtime.stage_pipeline import StagePipeline
from ..sampling import build_sampler
from ..sampling.base import check_target_ids
from .admission import CreditScheduler
from .microbatch import MicroBatch, MicroBatcher
from .requests import InferenceRequest, InferenceResponse, ShedResponse

_LOG = logging.getLogger("repro.serving")


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving front door (validated eagerly).

    ``latency_budget_s`` is the contract the benchmark holds the
    session to (accepted p99 within budget); ``coalesce_window_s``
    (default: a quarter of the budget) is an upper bound on how much
    of it the batcher may spend coalescing. It only bites behind a
    backlog: an idle :meth:`ServingSession.step` flushes the open
    batch at once. Admission bounds — the pending-request queue
    and the per-tenant credit bucket — are what keep the budget
    holdable under overload: beyond them the session sheds (typed)
    instead of queueing.
    """

    latency_budget_s: float = 0.25
    coalesce_window_s: float | None = None
    max_batch_targets: int = 64
    max_pending_requests: int = 64
    #: Per-tenant credit refill in target-vertices/s; ``None``
    #: disables credit scheduling (single-tenant default).
    credit_rate_targets_per_s: float | None = None
    credit_burst_targets: int = 128
    #: Micro-batches one :meth:`ServingSession.step` executes at
    #: most, oldest first.
    max_depth: int = 2
    #: Which trainer kind's transfer policy serving pays: ``"accel"``
    #: (quantized PCIe path) or ``"cpu"`` (host-memory, identity).
    device: str = "accel"

    def __post_init__(self) -> None:
        if self.latency_budget_s <= 0:
            raise ConfigError("latency_budget_s must be positive")
        window = self.coalesce_window_s
        if window is not None and not \
                0 < window <= self.latency_budget_s:
            raise ConfigError(
                "coalesce_window_s must be in (0, latency_budget_s]")
        if self.max_batch_targets < 1:
            raise ConfigError("max_batch_targets must be >= 1")
        if self.max_pending_requests < 1:
            raise ConfigError("max_pending_requests must be >= 1")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.device not in ("cpu", "accel"):
            raise ConfigError(
                f"device must be 'cpu' or 'accel', got {self.device!r}")

    @property
    def window_s(self) -> float:
        """The effective coalesce window."""
        if self.coalesce_window_s is not None:
            return self.coalesce_window_s
        return self.latency_budget_s / 4.0


@dataclass
class ServingReport:
    """Aggregate outcome of a serving run (see also
    :mod:`repro.serving.loadgen` for the open-loop wrapper)."""

    accepted: int = 0
    completed: int = 0
    #: Accepted requests whose micro-batch raised during execution.
    failed: int = 0
    shed: dict[str, int] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)
    targets_served: int = 0
    kernel_stats: dict[str, int] = field(default_factory=dict)
    credit_ledger: dict[str, dict[str, float]] = field(
        default_factory=dict)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def offered(self) -> int:
        return self.accepted + self.shed_total

    def latency_percentile(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_s), q))

    def to_dict(self) -> dict:
        return {
            "offered": self.offered,
            "accepted": self.accepted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": dict(self.shed),
            "shed_rate": (self.shed_total / self.offered
                          if self.offered else 0.0),
            "targets_served": self.targets_served,
            "batches": len(self.batch_sizes),
            "mean_batch_requests": (float(np.mean(self.batch_sizes))
                                    if self.batch_sizes else 0.0),
            "latency_p50_ms": self.latency_percentile(50) * 1e3,
            "latency_p99_ms": self.latency_percentile(99) * 1e3,
            "kernel_stats": dict(self.kernel_stats),
            "credit_ledger": {t: dict(v)
                              for t, v in self.credit_ledger.items()},
        }


class ServingSession:
    """Micro-batched online inference over the shared runtime stack.

    Parameters
    ----------
    dataset / train_cfg / sys_cfg:
        The workload, the sampler/model hyper-parameters (fanouts,
        layer count, model family — the same ``TrainingConfig`` a
        training session takes, so a serving session can be stood up
        over exactly the trained configuration), and the system policy
        (transfer precision).
    config:
        The :class:`ServingConfig` front-door knobs.
    params:
        Flat parameter vector to serve (e.g.
        ``trained_model.get_flat_params()``); ``None`` serves the
        seed-initialized model (benchmarks).
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(self, dataset: GraphDataset,
                 train_cfg: TrainingConfig,
                 sys_cfg: SystemConfig | None = None, *,
                 config: ServingConfig | None = None,
                 params: np.ndarray | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.dataset = dataset
        self.train_cfg = train_cfg
        self.sys_cfg = sys_cfg if sys_cfg is not None else SystemConfig()
        self.config = config if config is not None else ServingConfig()
        self.clock = clock

        self.dims = layer_dims(dataset.spec.feature_dim,
                               train_cfg.hidden_dim,
                               dataset.spec.num_classes,
                               train_cfg.num_layers)
        sampler = build_sampler(
            train_cfg.sampler, dataset.graph, dataset.train_ids,
            train_cfg, dataset.spec.feature_dim)
        #: The shared per-item producer chain — the same class a
        #: training session composes, decoding accelerator loads from
        #: the store's wire table the same way.
        self.pipeline = StagePipeline(
            sampler, dataset.features, dataset.labels,
            self.sys_cfg.transfer_precision)
        self.model = build_model(train_cfg.model, self.dims,
                                 train_cfg.seed)
        if params is not None:
            self.model.set_flat_params(params)
        self.degrees = dataset.graph.out_degrees

        # Session-scoped kernel counters (never shared with a
        # co-tenant training session).
        self.counters = KernelCounters()

        self.batcher = MicroBatcher(self.config.window_s,
                                    self.config.max_batch_targets,
                                    clock=clock)
        self.credits = CreditScheduler(
            self.config.credit_rate_targets_per_s,
            self.config.credit_burst_targets, clock=clock)
        self.closed = False
        self.report = ServingReport()
        self._next_id = 0

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def submit(self, targets, tenant: str = "default", *,
               arrival_s: float | None = None
               ) -> ShedResponse | None:
        """Submit one inference request.

        Returns ``None`` on acceptance (the response arrives from a
        later :meth:`step`) or a typed :class:`ShedResponse`. All
        shedding happens here — a shed request never reaches the
        sampler. ``arrival_s`` lets an open-loop generator stamp the
        *scheduled* arrival so measured latency includes queueing
        delay.
        """
        now = self.clock()
        rid = self._next_id
        self._next_id += 1
        if arrival_s is None:
            arrival_s = now
        targets = np.asarray(targets)
        if self.closed:
            return self._shed(rid, tenant, "closed", now)
        # Outside input, checked by the samplers' own rules before any
        # cast: a bad request (empty, or an id out of range, fractional
        # or nested) would otherwise be truncated into a real vertex or
        # blow up inside the sampler mid-batch, taking the valid
        # co-batched requests (and their pending slots) with it.
        # Refused before any credit is spent or slot admitted.
        try:
            targets = check_target_ids(targets,
                                       self.dataset.graph.num_vertices)
        except SamplingError:
            return self._shed(rid, tenant, "invalid", now)
        if self.batcher.pending_requests >= \
                self.config.max_pending_requests:
            return self._shed(rid, tenant, "queue_full", now)
        if not self.credits.try_spend(tenant, int(targets.size)):
            return self._shed(rid, tenant, "no_credit", now)
        request = InferenceRequest(request_id=rid, tenant=tenant,
                                   targets=targets,
                                   arrival_s=arrival_s)
        self.batcher.offer(request)
        self.report.accepted += 1
        return None

    def _shed(self, rid: int, tenant: str, reason: str,
              now: float) -> ShedResponse:
        self.report.shed[reason] = self.report.shed.get(reason, 0) + 1
        return ShedResponse(request_id=rid, tenant=tenant,
                            reason=reason, shed_s=now)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> list[InferenceResponse | ShedResponse]:
        """Execute up to ``config.max_depth`` micro-batches, oldest
        first, one after another; returns one response per member
        request.

        Work-conserving: when no sealed batch is ready, the open batch
        is flushed rather than left to wait out the coalesce window, so
        a step with anything pending always answers something. Requests
        submitted since the last step still ride one batch, and behind
        a backlog of size-flushed batches the open batch keeps
        collecting (the window then bounds how long it may).

        A batch whose execution raises is logged and answered with a
        ``"failed"`` :class:`ShedResponse` per member; the other taken
        batches still execute and nothing is re-raised.
        """
        self.batcher.poll()
        if not self.batcher.ready_batches:
            self.batcher.flush()
        responses: list[InferenceResponse | ShedResponse] = []
        for batch in self.batcher.take(self.config.max_depth):
            try:
                responses.extend(self._execute(batch))
            except Exception:
                responses.extend(self._fail(batch))
        return responses

    def drain(self) -> list[InferenceResponse | ShedResponse]:
        """Step until nothing is pending (shutdown / end-of-run
        path)."""
        responses: list[InferenceResponse | ShedResponse] = []
        while self.batcher.pending_requests:
            responses.extend(self.step())
        return responses

    def _execute(self, batch: MicroBatch) -> list[InferenceResponse]:
        # Coalescing means the same vertex can appear in several
        # member requests; the sampler (and the stage work) sees each
        # target once, and predictions scatter back per request.
        unique_targets, inverse = np.unique(batch.targets,
                                            return_inverse=True)
        with scoped_counters(self.counters):
            prepared = self.pipeline.prepare(unique_targets,
                                             self.config.device,
                                             with_labels=False)
            logits = self.model.predict(prepared.mb, prepared.x0,
                                        self.degrees)
        predictions = np.argmax(logits, axis=1)[inverse]
        completed_s = self.clock()
        responses: list[InferenceResponse] = []
        offset = 0
        for request in batch.requests:
            n = request.num_targets
            responses.append(InferenceResponse(
                request_id=request.request_id,
                tenant=request.tenant,
                predictions=predictions[offset:offset + n],
                completed_s=completed_s,
                latency_s=completed_s - request.arrival_s,
                batch_seq=batch.seq))
            offset += n
        self.report.completed += len(batch.requests)
        self.report.latencies_s.extend(r.latency_s for r in responses)
        self.report.batch_sizes.append(len(batch.requests))
        self.report.targets_served += batch.num_targets
        return responses

    def _fail(self, batch: MicroBatch) -> list[ShedResponse]:
        # Credits stay spent: the stage work was attempted.
        _LOG.exception("serving micro-batch %d failed", batch.seq)
        self.report.failed += len(batch.requests)
        now = self.clock()
        return [ShedResponse(request_id=r.request_id, tenant=r.tenant,
                             reason="failed", shed_s=now)
                for r in batch.requests]

    # ------------------------------------------------------------------
    def finalize_report(self) -> ServingReport:
        """Stamp the stats handles into the report and return it."""
        self.report.kernel_stats = self.counters.snapshot()
        self.report.credit_ledger = self.credits.ledger()
        return self.report

    def close(self) -> ServingReport:
        """Shut the front door (subsequent submits shed ``closed``)
        and return the final report."""
        self.closed = True
        return self.finalize_report()

    def __enter__(self) -> "ServingSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ServingSession over {self.dataset.name} "
                f"pending={self.batcher.pending_requests} "
                f"{'closed' if self.closed else 'open'}>")
