"""Pipelined async execution backend (paper §IV-B, Fig. 7 overlap).

The threaded and process backends realize the training protocol on live
substrates, but both still resolve iterations *lock-step*: every stage
of iteration ``i`` finishes before iteration ``i+1`` starts anywhere.
This backend is the paper's two-stage-prefetch claim made live: the
producer stages of one iteration overlap the train stage of earlier
ones, per trainer, with backpressure end-to-end:

::

    BatchPlan ──dispatcher──► [q_sample] ──sample──► [q_gather]
        ──gather──► [q_transfer] ──transfer──► [q_train] ──► train+sync

* a **dispatcher** thread drains the shared
  :class:`~repro.runtime.core.BatchPlan` (one permutation per epoch,
  quota slices in trainer order — epoch coverage stays *exact*) and fans
  each trainer's targets into its sample queue;
* per trainer, one :class:`~.overlap.StageChain` over the session's
  :class:`~repro.runtime.stage_pipeline.StagePipeline` — **sample**
  (whose lock keeps the shared RNG stream uncorrupted),
  **feature-gather** (host-DDR row gather) and **quantized transfer**
  (the PCIe link policy) threads passing items through bounded
  :class:`~repro.runtime.prefetch.PrefetchBuffer` queues;
* the caller's thread is the **train + synchronizer** stage: it consumes
  prepared batches in iteration order, trains every replica, and runs
  the shared all-reduce through ``session.reduce_and_step`` — gradient
  math stays synchronous SGD, identical to every other backend.

**Adaptive look-ahead** (replacing a fixed prefetch ``depth``): after
each iteration the timing plane's
:meth:`~repro.runtime.core.TrainingSession.timing_step` yields modelled
:class:`~repro.perfmodel.model.StageTimes`; :func:`adaptive_depth` turns
the producer/consumer time ratio into an effective depth and every stage
buffer is resized live — deep look-ahead only when the producer stages
are the bottleneck, shallow (less memory in flight) when training is.

Why this backend is **not** bit-identical to the virtual reference with
more than one trainer: per-trainer sample threads interleave draws from
the shared sampler stream in scheduler order, and the dispatcher plans
up to ``depth`` iterations ahead of the DRM engine (Algorithm 1 sees
iteration ``i``'s times only after ``i`` *trains*, by which time the
plan has already sliced quotas for the in-flight iterations). Both are
inherent to overlap — DistDGL's producer/consumer pipeline makes the
same trade. It therefore declares ``conformance_tier = "statistical"``:
the kit asserts exact epoch coverage, target-budget conservation,
DRM-trajectory shape and loss/parameter closeness instead of
bit-parity. With a single trainer and no look-ahead-sensitive state the
stream order is the plan order, so the single-trainer case **is**
bit-identical — pinned by the conformance suite.

This plane's overlap runs on threads under the GIL; the process
driver's overlapped worker body (:mod:`.process`) runs the same
:class:`~.overlap.StageChain` under the same
:class:`~.overlap.DepthPolicy` *inside* GIL-free worker processes. The
tier contract both planes share is documented in ``docs/backends.md``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ...errors import ProtocolError
from ...kernels import scoped_counters
from ..protocol import Signal
from ..resctl import NodeAllocator, fold_worker_realized
from .base import ExecutionBackend
from .overlap import DepthPolicy, StageChain
from .report import RunReport


class PipelinedBackend(ExecutionBackend):
    """Overlapped producer/consumer execution on live threads.

    Parameters
    ----------
    session:
        The shared runtime core. Timing-plane sessions drive the
        adaptive look-ahead from modelled stage times; functional-only
        sessions run at a fixed depth.
    initial_depth:
        Look-ahead every stage buffer starts with (defaults to the
        session's ``prefetch_depth`` when two-stage prefetching is on,
        else 1 — minimal in-flight work, matching the serialized
        ablation presets).
    max_depth:
        Hard cap the adaptive policy can never exceed. Defaults to 8
        or the initial depth, whichever is larger — default
        construction is valid for *any* session, however deep its
        configured ``prefetch_depth``; an explicitly-passed cap below
        the initial depth still fails loudly.
    timeout_s:
        Watchdog (a monotonic deadline) on every blocking stage handoff
        — a wedged pipeline fails fast instead of hanging the suite.
    depth_source:
        ``"realized"`` (default) calibrates the timing plane against
        monitored stage wall times before it drives ``adaptive_depth``
        and ``drm_step``; ``"model"`` reproduces the purely-analytic
        trajectories bit for bit (see
        :func:`~.overlap.resolve_depth_source`).
    allocator:
        The node-level :class:`~repro.runtime.resctl.NodeAllocator`
        arbitrating look-ahead depth across concurrent sessions
        (defaults to the process-global one). The run registers on
        entry and releases in a ``finally``.
    """

    name = "pipelined"
    conformance_tier = "statistical"

    def __init__(self, session, initial_depth: int | None = None,
                 max_depth: int | None = None,
                 timeout_s: float = 60.0,
                 depth_source: str | None = None,
                 allocator: NodeAllocator | None = None) -> None:
        super().__init__(session)
        #: The look-ahead depth policy (knobs, estimator, grant).
        self.lookahead = DepthPolicy(session, initial_depth, max_depth,
                                     depth_source, allocator)
        if timeout_s <= 0:
            raise ProtocolError("timeout_s must be positive")
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    def run(self, iterations: int) -> RunReport:
        """Execute ``iterations`` synchronized iterations, overlapped.

        Iterations follow the shared batch plan (rolling into fresh
        epoch permutations as needed); the all-reduce stays a per-
        iteration barrier, so only *producer* work runs ahead.
        """
        if iterations < 1:
            raise ProtocolError("iterations must be >= 1")
        report = RunReport(iterations=iterations, trained_targets=[])
        with self.lookahead.run(self.name, report) as depth:
            self._run_overlapped(iterations, depth, report)
        return report

    def _run_overlapped(self, iterations: int, depth: int,
                        report: RunReport) -> None:
        s = self.session
        rows: list[list[float]] = []
        error: dict = {"exc": None}

        def fail(exc: BaseException) -> None:
            if error["exc"] is None:
                error["exc"] = exc
            for chain in chains:
                chain.close()

        chains = [StageChain(s.pipeline, trainer.kind, depth,
                             self.timeout_s, fail,
                             f"pipeline-{{}}{idx}", wrap=self.scoped)
                  for idx, trainer in enumerate(s.trainers)]

        def dispatcher() -> None:
            try:
                for it, planned in s.work_source.iterate(iterations):
                    for chain, targets in zip(chains,
                                              planned.assignments):
                        if targets is not None:
                            report.trained_targets.append(targets)
                        chain.feed(it, targets)
                for chain in chains:
                    chain.end()
            except BaseException as exc:
                fail(exc)

        feeder = threading.Thread(target=self.scoped(dispatcher),
                                  daemon=True,
                                  name="pipeline-dispatcher")
        counters_before = self.counters.snapshot()
        start = time.perf_counter()
        feeder.start()
        for chain in chains:
            chain.start()

        try:
            with scoped_counters(self.counters):
                for it in range(iterations):
                    times = self._train_iteration(it, chains, error,
                                                  report, rows)
                    if self.lookahead.adapt(times, it, report):
                        for chain in chains:
                            chain.resize(self.lookahead.depth)
        finally:
            # Close every buffer first (unblocks any stage thread stuck
            # in put/get — they observe the close and drain out), then
            # join; runs on success and failure alike, so no stage
            # thread outlives the run.
            for chain in chains:
                chain.close()
            feeder.join(timeout=self.timeout_s)
            lingering = [name for chain in chains
                         for name in chain.join()]
            if feeder.is_alive():
                lingering.append(feeder.name)

        # Only reached on the success path (a failure above propagates
        # its own error): a thread that survived its join is wedged
        # outside any buffer wait — fail the run rather than return a
        # report whose stage stats that thread could still be mutating.
        if lingering:
            raise ProtocolError(
                f"pipeline stage threads failed to join within "
                f"{self.timeout_s}s: {lingering}")

        report.wall_time_s = time.perf_counter() - start
        report.kernel_stats = self.counters.delta(counters_before)
        report.replicas_consistent = \
            s.synchronizer.replicas_consistent()
        report.fold_buffers([chain.buffer_stats() for chain in chains])
        report.close_timeline(s, rows)

    # ------------------------------------------------------------------
    def _train_iteration(self, it: int, chains, error, report, rows):
        """Consume one iteration's prepared batches, train and
        synchronize. Returns the iteration's stage times (``None`` on a
        functional-only session) for the depth policy."""
        s = self.session
        stats_cpu = None
        stats_accel: list = []
        sizes: list[int] = []
        losses: list[float] = []
        accs: list[float] = []
        per_trainer: list[tuple[str, dict]] = []

        for idx, trainer in enumerate(s.trainers):
            try:
                item = chains[idx].take()
            except ProtocolError:
                if error["exc"] is not None:
                    raise error["exc"] from None
                raise
            if item is None:
                raise error["exc"] if error["exc"] is not None else \
                    ProtocolError(
                        f"pipeline for trainer {idx} ended before "
                        f"iteration {it}")
            if item.it != it:
                raise ProtocolError(
                    f"trainer {idx} received iteration {item.it}, "
                    f"expected {it} (stage reordering)")
            mb = item.mb
            st = None if mb is None else mb.stats()
            if trainer.kind == "cpu":
                stats_cpu = st
            elif trainer.kind == "accel":
                stats_accel.append(st)
            if mb is None:
                sizes.append(0)
                trainer.model.zero_grad()
                per_trainer.append((trainer.kind, {}))
                continue
            sizes.append(int(item.work.size))
            t0 = time.perf_counter()
            rep = trainer.train_minibatch(mb, item.x0, item.labels,
                                          s.degrees)
            item.stage_s["train"] = time.perf_counter() - t0
            per_trainer.append((trainer.kind, item.stage_s))
            report.total_edges += st.total_edges
            losses.append(rep.loss)
            accs.append(rep.accuracy)
            report.protocol_log.record(it, Signal.DONE, trainer.name)

        if not any(sz > 0 for sz in sizes):
            raise ProtocolError(
                f"iteration {it} dispatched no work to any trainer")
        sync_start = time.perf_counter()
        s.reduce_and_step(sizes, it)
        sync_s = time.perf_counter() - sync_start
        report.protocol_log.record(it, Signal.SYNC, "synchronizer")
        report.protocol_log.record(it, Signal.ITER_START, "runtime")
        report.losses.append(float(np.mean(losses)))
        report.accuracies.append(float(np.mean(accs)))

        realized = fold_worker_realized(per_trainer, sync_s)
        self.monitor.observe_times(realized)
        if not s.has_timing:
            return None
        times, row, split = s.timing_step(
            stats_cpu, stats_accel, it,
            estimator=self.lookahead.estimator, realized=realized,
            calibrate=self.lookahead.calibrate,
            overlapped=self.overlaps_transfer)
        rows.append(row)
        report.stage_history.append(times)
        report.split_history.append(split)
        return times
