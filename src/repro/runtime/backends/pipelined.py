"""The in-process planes: one driver, three feeds (paper Fig. 5,
Listing 1, §IV-B).

:class:`InProcessBackend` is the training protocol in the caller's
process, written once. Per run it

1. opens the look-ahead window
   (:meth:`~.base.ExecutionBackend.window`) — the session's window
   (``prefetch_depth`` under two-stage prefetch, else 1), fixed for
   the whole run;
2. starts the **feed** (the one seam, a class attribute): what turns
   the session's work source into prepared batches — threads filling
   one bounded :class:`~repro.runtime.prefetch.PrefetchBuffer` per
   trainer, or nothing at all;
3. trains each iteration on the feed's **lanes**
   (:meth:`Feed.train`) — takes each trainer's item in trainer order
   and trains it — then ends the iteration on the caller's thread in
   the shared synchronize tail
   (:meth:`~.base.ExecutionBackend.end_iteration`: all-reduce, every
   optimizer steps, Listing 1 recorded in the report's
   :class:`~repro.runtime.protocol.ProtocolLog`), answers in trainer
   order;
4. closes and joins the feed and closes the report.

Three feeds ship. Two run the plan-order generator
(:meth:`Feed._items`), which samples each trainer's batch in plan
order, loads it through ``session.load_features`` and takes
the uncalibrated timing/DRM step once each iteration's last batch is
loaded, so Algorithm 1 sees iteration ``i`` before ``i + 1``'s quotas
are read:

* :class:`InlineFeed` — no thread: ``take`` runs the generator on the
  caller's thread (``virtual``, the reference);
* :class:`PlanOrderFeed` — one ``producer`` thread runs it ahead of the
  consumer (``threaded``, bit-identical to the reference);
* :class:`ChainFeed` — a dispatcher thread fanning the plan into one
  :class:`~.overlap.StageChain` (``sample → gather → transfer`` stage
  threads) per trainer; its items train side by side on
  ``min(trainers, usable cores)`` lanes, the caller's thread plus
  ``pipeline-train<k>`` helpers, as the paper's CPU and accelerator
  trainers train one iteration's batches at the same time (Fig. 5).
  The other two feeds keep one lane, the caller's thread: ``threaded``'s
  single producer is its workloads' bottleneck, and a second training
  thread would take its core.

The DRM rule: the consumer adjudicates the timing/DRM step only when a
preset installs an :class:`~repro.runtime.resctl.OnlineEstimator` as
``self.estimator`` — after the iteration trained, on calibrated stage
times; otherwise the feed does, as it produces. It mirrors the process
driver, where strictness is a window of 1 plus sampling in the parent.

``pipelined`` is not bit-identical to the virtual reference with more
than one trainer: its per-trainer sample threads interleave draws from
the shared sampler stream in scheduler order, and the dispatcher plans
up to ``depth`` iterations ahead of the DRM step. Both are inherent to
overlap — DistDGL's producer/consumer pipeline makes the same trade —
so it declares ``conformance_tier = "statistical"``. With a single
trainer the stream order is the plan order, and the conformance suite
pins it bit-identical.

The registry names ``threaded`` and ``pipelined`` are **presets**:
class attributes plus, at most, an ``__init__``; ``virtual``
(:mod:`.virtual`) adds its timing-only ``simulate_epoch``. The tier
contract and the decision table are in ``docs/backends.md``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import ClassVar

from ...errors import ProtocolError, StageTimeoutError
from ...kernels import scoped_counters
from ..prefetch import PrefetchBuffer
from ..resctl import OnlineEstimator
from .base import ExecutionBackend
from .overlap import Prepared, StageChain
from .report import Reply, RunReport


# ---------------------------------------------------------------------------
# Seam: the feed
# ---------------------------------------------------------------------------

class Feed:
    """The producer side of one in-process run: hands the consumer
    :class:`~.overlap.Prepared` items, one per trainer per iteration,
    in iteration order — idle iterations included, as items whose
    ``work`` is ``None``. A threaded feed fills one output buffer per
    trainer (``outs``); a thread that dies records its exception
    (:meth:`fail`) and closes every buffer, so the consumer wakes and
    re-raises it. ``rows`` collects the duration rows of the
    timing/DRM steps a feed takes itself. :meth:`train` hands one
    iteration's items to the consumer's ``train_one`` on the
    feed's lanes: one, the caller's thread, unless the feed trains
    side by side (:class:`ChainFeed`)."""

    def __init__(self, backend, iterations: int, report,
                 rows: list) -> None:
        self.backend = backend
        self.session = backend.session
        self.iterations = iterations
        self.report = report
        self.rows = rows
        self.timeout_s = backend.timeout_s
        self.error: BaseException | None = None
        self.outs: list[PrefetchBuffer] = []
        #: Every buffer the feed owns, closed together.
        self.buffers: list[PrefetchBuffer] = []
        self.threads: list[threading.Thread] = []

    def fail(self, exc: BaseException) -> None:
        if self.error is None:
            self.error = exc
        self.close()

    def start(self) -> None:
        for t in self.threads:
            t.start()

    def take(self, idx: int, it: int) -> Prepared:
        """Trainer ``idx``'s item for iteration ``it``; a feed that
        died surfaces its own exception, not the close it caused."""
        try:
            item = self.outs[idx].get(timeout=self.timeout_s)
        except ProtocolError:
            if self.error is not None:
                raise self.error from None
            raise
        if item is None:
            raise self.error if self.error is not None else \
                ProtocolError(f"feed for trainer {idx} ended before "
                              f"iteration {it}")
        if item.it != it:
            raise ProtocolError(
                f"trainer {idx} received iteration {item.it}, expected "
                f"{it} (stage reordering)")
        return item

    def train(self, it: int, train_one) -> list:
        """Iteration ``it``'s ``train_one(idx, item)`` answers, in
        trainer order: one lane — each item taken and trained on the
        caller's thread in turn."""
        return [train_one(idx, self.take(idx, it))
                for idx in range(len(self.session.trainers))]

    def close(self) -> None:
        """Close every buffer — unblocks any thread stuck in a put/get
        on the failure path."""
        for b in self.buffers:
            b.close()

    def join(self) -> list[str]:
        """Close, then join every thread; returns the names of any that
        survived the watchdog (wedged outside a buffer wait)."""
        self.close()
        for t in self.threads:
            t.join(timeout=self.timeout_s)
        return [t.name for t in self.threads if t.is_alive()]

    def buffer_stats(self) -> list[dict]:
        return []

    def _items(self):
        """Mini-batch Sampler + Feature Loader in plan order: yields
        ``(trainer index, Prepared)`` — each trainer's batch sampled
        from the session's one stream and loaded through
        ``load_features`` into a fresh array — and, with no estimator
        installed, takes the uncalibrated timing/DRM step once an
        iteration's last batch is loaded, before handing it over: the
        plan slices the next iteration after it."""
        s = self.session
        adjudicate = s.has_timing and self.backend.estimator is None
        for it, planned in s.work_source.iterate(self.iterations):
            stats = []
            for idx, (trainer, targets) in enumerate(
                    zip(s.trainers, planned.assignments)):
                item = Prepared(it, targets)
                if targets is not None:
                    t0 = time.perf_counter()
                    item.mb = s.sampler.sample(targets)
                    t1 = time.perf_counter()
                    item.x0 = s.load_features(item.mb, trainer.kind)
                    item.stage_s = {"sample": t1 - t0,
                                    "load": time.perf_counter() - t1}
                    item.labels = s.labels_for(item.mb)
                stats.append(None if item.mb is None
                             else item.mb.stats())
                if adjudicate and len(stats) == len(s.trainers):
                    self.backend.record_timing(self.report, self.rows,
                                               stats, it)
                yield idx, item


class PlanOrderFeed(Feed):
    """One ``producer`` thread drains :meth:`~Feed._items` into one
    buffer per trainer, handing each item over as soon as it is ready:
    trainer 0 trains while trainers 1..n-1 still load."""

    def __init__(self, backend, iterations: int, depth: int, report,
                 rows: list) -> None:
        super().__init__(backend, iterations, report, rows)
        self.outs = self.buffers = [PrefetchBuffer(depth)
                                    for _ in self.session.trainers]
        self.threads = [threading.Thread(
            target=backend.scoped(self._produce), daemon=True,
            name="producer")]

    def _produce(self) -> None:
        try:
            for idx, item in self._items():
                self.outs[idx].put(item, timeout=self.timeout_s)
            for out in self.outs:
                out.close()
        except BaseException as exc:
            self.fail(exc)

    def buffer_stats(self) -> list[dict]:
        return [{"train": (b.total_puts, b.high_water, b.mean_occupancy)}
                for b in self.outs]


class InlineFeed(Feed):
    """No thread and no buffer: :meth:`take` runs :meth:`~Feed._items`
    on the caller's thread up to the next item: each batch trains
    before the next one loads."""

    def __init__(self, backend, iterations: int, depth: int, report,
                 rows: list) -> None:
        super().__init__(backend, iterations, report, rows)
        self.pending = self._items()

    def take(self, idx: int, it: int) -> Prepared:
        got, item = next(self.pending, (None, None))
        if got != idx or item.it != it:
            raise ProtocolError(f"inline feed out of step: trainer {got} "
                                f"yielded, trainer {idx} iteration {it} due")
        return item


def usable_cores() -> int:
    """The cores this process may run on — a host property."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ChainFeed(Feed):
    """A ``pipeline-dispatcher`` thread drains the plan (quota slices
    in trainer order — epoch coverage stays exact) into one
    :class:`~.overlap.StageChain` per trainer over the session's
    :class:`~repro.runtime.stage_pipeline.StagePipeline`, whose sampler
    lock keeps the shared RNG stream uncorrupted. The dispatched
    targets land in ``report.trained_targets``.

    An iteration's items train on **lanes**: the caller's thread plus
    one ``pipeline-train<k>`` thread per further lane, up to
    ``min(trainers, usable cores)``, all meeting at a barrier before
    and after the iteration. Lanes take items in trainer order under
    one lock, and a free lane trains the next one taken; the answers
    come back in trainer order. A lane that dies fails the feed,
    which breaks the barrier; a lane that misses it past the watchdog
    is a :class:`~repro.errors.StageTimeoutError`."""

    def __init__(self, backend, iterations: int, depth: int, report,
                 rows: list) -> None:
        super().__init__(backend, iterations, report, rows)
        report.trained_targets = []
        self.chains = [StageChain(self.session.pipeline, trainer.kind,
                                  depth, self.timeout_s, self.fail,
                                  f"pipeline-{{}}{idx}",
                                  wrap=backend.scoped)
                       for idx, trainer in enumerate(self.session.trainers)]
        self.outs = [chain.bufs["train"] for chain in self.chains]
        self.buffers = [b for chain in self.chains
                        for b in chain.bufs.values()]
        self.threads = [threading.Thread(
            target=backend.scoped(self._dispatch), daemon=True,
            name="pipeline-dispatcher")]
        self.threads += [t for chain in self.chains for t in chain.threads]
        lanes = min(len(self.session.trainers), usable_cores())
        self.barrier = threading.Barrier(lanes, timeout=self.timeout_s)
        self.lock = threading.Lock()
        self.threads += [threading.Thread(
            target=backend.scoped(self._help), daemon=True,
            name=f"pipeline-train{k}") for k in range(1, lanes)]

    def _dispatch(self) -> None:
        try:
            for it, planned in self.session.work_source.iterate(
                    self.iterations):
                for chain, targets in zip(self.chains,
                                          planned.assignments):
                    if targets is not None:
                        self.report.trained_targets.append(targets)
                    chain.feed(it, targets)
            for chain in self.chains:
                chain.end()
        except BaseException as exc:
            self.fail(exc)

    def train(self, it: int, train_one) -> list:
        self.it, self.train_one = it, train_one
        self.answers = [None] * len(self.chains)
        self.pending = iter(range(len(self.chains)))
        try:
            self.barrier.wait()
            self._lane()
            self.barrier.wait()
        except threading.BrokenBarrierError:
            raise self.error or StageTimeoutError(
                f"a lane missed the barrier in {self.timeout_s}s") from None
        return self.answers

    def _lane(self) -> None:
        while True:
            with self.lock:
                idx = next(self.pending, None)
                if idx is None:
                    return
                item = self.take(idx, self.it)
            self.answers[idx] = self.train_one(idx, item)

    def _help(self) -> None:
        try:
            while True:
                self.barrier.wait()
                self._lane()
                self.barrier.wait()
        except threading.BrokenBarrierError:
            pass   # the run ended, or another lane failed or timed out
        except BaseException as exc:
            self.fail(exc)

    def close(self) -> None:
        super().close()
        self.barrier.abort()

    def buffer_stats(self) -> list[dict]:
        return [chain.buffer_stats() for chain in self.chains]


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

class InProcessBackend(ExecutionBackend):
    """Run synchronous-SGD training in this process, the feed's
    threads (if any) ahead of its training lanes and a synchronize
    tail on the caller's thread.

    Not registered itself — the registry holds presets of it.

    Parameters
    ----------
    session:
        The shared runtime core. Platform sessions bring the hybrid
        CPU+accelerator split, DRM, transfer quantization and the
        modelled timing plane onto the run; platform-less sessions
        run the functional protocol only.
    timeout_s:
        Watchdog (a monotonic deadline) on every blocking handoff — a
        wedged feed fails fast instead of hanging the suite.
    """

    #: Seam: what prepares batches (a :class:`Feed`).
    feed: ClassVar[type] = PlanOrderFeed

    def __init__(self, session, timeout_s: float = 60.0) -> None:
        super().__init__(session)
        if timeout_s <= 0:
            raise ProtocolError("timeout_s must be positive")
        self.timeout_s = timeout_s

    def run(self, iterations: int) -> RunReport:
        """Execute ``iterations`` synchronized iterations, rolling into
        fresh epoch permutations as needed. Only the feed runs ahead;
        the all-reduce stays a per-iteration barrier."""
        if iterations < 1:
            raise ProtocolError("iterations must be >= 1")
        s = self.session
        report = RunReport(iterations=iterations)
        rows: list[list[float]] = []
        feed = self.feed(self, iterations, self.window(), report, rows)
        counters_before = self.counters.snapshot()
        start = time.perf_counter()
        feed.start()
        try:
            with scoped_counters(self.counters):
                for it in range(iterations):
                    # Listing 1's trainer block, then the synchronize
                    # tail on this thread, which adjudicates DRM only
                    # under an estimator.
                    sizes, answers = zip(*feed.train(it, self._train_one))
                    self.end_iteration(
                        it, sizes, answers, report, rows,
                        adjudicate=self.estimator is not None)
        finally:
            # Success and failure alike: no feed thread outlives the
            # run.
            lingering = feed.join()
        # Only reached on success: a thread that survived its join is
        # wedged outside any buffer wait — fail rather than return a
        # report it could still be mutating.
        if lingering:
            raise ProtocolError(
                f"feed threads failed to join within "
                f"{self.timeout_s}s: {lingering}")
        report.wall_time_s = time.perf_counter() - start
        report.kernel_stats = self.counters.delta(counters_before)
        report.replicas_consistent = \
            s.synchronizer.replicas_consistent()
        report.fold_buffers(feed.buffer_stats())
        report.close_timeline(s, rows)
        return report

    def _train_one(self, idx: int, item: Prepared):
        """Train trainer ``idx``'s item: ``(batch size, Reply)``, or
        ``(0, None)`` for an idle one."""
        if item.mb is None:
            return 0, None
        s = self.session
        t0 = time.perf_counter()
        rep = s.trainers[idx].train_minibatch(item.mb, item.x0,
                                              item.labels, s.degrees)
        item.stage_s["train"] = time.perf_counter() - t0
        return int(item.work.size), Reply(rep.loss, rep.accuracy,
                                          item.stage_s, item.mb.stats())


# ---------------------------------------------------------------------------
# The presets (registry names)
# ---------------------------------------------------------------------------

class ThreadedBackend(InProcessBackend):
    """``threaded`` — the Listing-1 protocol on live threads,
    **bit-identical** to the virtual reference: one producer samples in
    plan order and adjudicates DRM as it produces, the caller's thread
    trains and synchronizes. Held to the strict tier, hybrid + DRM +
    int8 transfer included."""

    name = "threaded"


class PipelinedBackend(InProcessBackend):
    """``pipelined`` — the paper's two-stage prefetch made live: per
    trainer, ``sample → gather → transfer`` stage threads run ahead of
    the train + sync consumer through the session's window, and an
    iteration's batches train side by side on the feed's lanes. Its
    :class:`~repro.runtime.resctl.OnlineEstimator` calibrates the DRM
    step against realized stage seconds, across runs."""

    name = "pipelined"
    conformance_tier = "statistical"
    feed = ChainFeed

    def __init__(self, session, timeout_s: float = 60.0) -> None:
        super().__init__(session, timeout_s=timeout_s)
        self.estimator = OnlineEstimator()
