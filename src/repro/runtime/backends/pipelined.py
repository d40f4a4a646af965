"""The in-process planes: one driver, two feeds (paper Fig. 5,
Listing 1, §IV-B).

:class:`InProcessBackend` is the training protocol in the caller's
process, written once. Per run it

1. opens the look-ahead window
   (:meth:`~.base.ExecutionBackend.window`) — the session's window
   (``prefetch_depth`` under two-stage prefetch, else 1), fixed for
   the whole run;
2. starts the **feed** (the one seam, a class attribute): what turns
   the session's work source into prepared batches — one thread
   filling one bounded :class:`~repro.runtime.prefetch.PrefetchBuffer`
   per trainer, or nothing at all;
3. trains each iteration on the feed's **lanes**
   (:meth:`Feed.train`) — takes each trainer's item in trainer order,
   loads its features through the session pipeline's ``load_codes``
   and trains it, on the lane that took it — then ends the iteration
   on the caller's thread in the shared synchronize tail
   (:meth:`~.base.ExecutionBackend.end_iteration`: all-reduce, every
   optimizer steps, Listing 1 recorded in the report's
   :class:`~repro.runtime.protocol.ProtocolLog`), answers in trainer
   order;
4. closes and joins the feed and closes the report.

Feeds only sample; no feed buffer holds feature rows. Two feeds ship,
and both run the plan-order generator (:meth:`Feed._items`), which
samples each trainer's batch in plan order from that trainer's stream
(``session.samplers``), on one thread, attaches its labels and takes the
uncalibrated timing/DRM step once each iteration's last batch is
sampled, so Algorithm 1 sees iteration ``i`` before ``i + 1``'s
quotas are read:

* :class:`InlineFeed` — no thread: ``take`` runs the generator on the
  caller's thread, which is its one lane (``virtual``, the reference);
* :class:`PlanOrderFeed` — one ``producer`` thread runs it ahead of the
  lanes (``threaded`` and ``pipelined``), and an iteration's items
  train side by side on ``min(trainers, usable cores)`` lanes, the
  caller's thread plus ``lane<k>`` helpers, as the paper's CPU and
  accelerator trainers train one iteration's batches at the same time
  (Fig. 5).

An accelerator load under a lossy transfer policy reads the
session's wire table
(:class:`~repro.runtime.stage_pipeline.StagePipeline`); an int8 one
stops at the cast, and the model's input layer folds the row scales.

The DRM rule: the consumer adjudicates the timing/DRM step only when a
preset installs an :class:`~repro.runtime.resctl.OnlineEstimator` as
``self.estimator`` — after the iteration trained, on calibrated stage
times; otherwise the feed does, as it produces. It mirrors the process
driver, where strictness under DRM is a window of 1.

``pipelined`` is ``threaded`` plus that estimator. Where it moves no
quota — no timing plane, or DRM off — the two are bit-identical, and
so are two same-seed ``pipelined`` runs. Under DRM the producer runs
up to the window ahead of the consumer's step, and the step is
calibrated on realized wall-clock seconds, so its split trajectory is
neither the reference's nor reproducible run to run; it declares
``conformance_tier = "statistical"``.

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
from .report import Reply, RunReport


# ---------------------------------------------------------------------------
# Seam: the feed
# ---------------------------------------------------------------------------

class Prepared:
    """One work item on its way to a training lane, straight from the
    plan-order generator. It carries the sampled batch and its labels,
    never feature rows: the lane that trains it loads them.

    ``work`` is what the sample stage consumes (target ids); ``None``
    marks an idle iteration, which passes through untouched so each
    trainer receives exactly one item per iteration. ``stage_s``
    collects the realized wall time of each stage under the raw stage
    names the resctl fold understands (``sample`` / ``load`` /
    ``train``).
    """

    __slots__ = ("it", "work", "mb", "labels", "stage_s")

    def __init__(self, it: int, work) -> None:
        self.it = it
        self.work = work
        self.mb = self.labels = None
        self.stage_s: dict[str, float] = {}


class Feed:
    """The producer side of one in-process run: hands the consumer
    :class:`Prepared` items — sampled and labelled, never loaded — one
    per trainer per iteration, in iteration order, idle iterations
    included as items whose ``work`` is ``None``. A threaded feed
    fills one buffer per trainer (``buffers``); a thread that dies
    records its exception (:meth:`fail`) and closes every buffer, so
    the consumer wakes and re-raises it. ``rows`` collects the
    duration rows of the timing/DRM steps a feed takes itself.
    :meth:`train` hands one iteration's items to the consumer's
    ``train_one`` on the feed's ``lanes``: one, the caller's thread,
    unless the feed trains side by side (:class:`PlanOrderFeed`)."""

    lanes = 1

    def __init__(self, backend, iterations: int, report,
                 rows: list) -> None:
        self.backend = backend
        self.session = backend.session
        self.iterations = iterations
        self.report = report
        self.rows = rows
        self.timeout_s = backend.timeout_s
        self.error: BaseException | None = None
        self.buffers: list[PrefetchBuffer] = []
        self.threads: list[threading.Thread] = []

    def fail(self, exc: BaseException) -> None:
        if self.error is None:
            self.error = exc
        self.close()

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
        """Close, then join every thread that started (a start that
        raised leaves the rest unstarted); returns the names of any
        that survived the watchdog (wedged outside a buffer wait)."""
        self.close()
        started = [t for t in self.threads if t.ident is not None]
        for t in started:
            t.join(timeout=self.timeout_s)
        return [t.name for t in started if t.is_alive()]

    def _items(self):
        """Mini-batch Sampler in plan order: yields ``(trainer index,
        Prepared)`` — each trainer's batch sampled from its own stream,
        its labels attached — and, with no estimator
        installed, takes the uncalibrated timing/DRM step once an
        iteration's last batch is sampled, before handing it over: the
        plan slices the next iteration after it. On a report that
        carries coverage evidence (``trained_targets`` not ``None``)
        each busy item's targets land there, in plan order."""
        s = self.session
        adjudicate = s.has_timing and self.backend.estimator is None
        trained = self.report.trained_targets
        for it, planned in s.work_source.iterate(self.iterations):
            stats = []
            for idx, targets in enumerate(planned.assignments):
                item = Prepared(it, targets)
                if targets is not None:
                    if trained is not None:
                        trained.append(targets)
                    t0 = time.perf_counter()
                    item.mb = s.samplers[idx].sample(targets)
                    item.stage_s["sample"] = time.perf_counter() - t0
                    item.labels = s.labels_for(item.mb)
                stats.append(None if item.mb is None
                             else item.mb.stats())
                if adjudicate and len(stats) == len(s.trainers):
                    self.backend.record_timing(self.report, self.rows,
                                               stats, it)
                yield idx, item


class InlineFeed(Feed):
    """No thread and no buffer: :meth:`take` runs :meth:`~Feed._items`
    on the caller's thread up to the next item: each batch loads and
    trains before the next one is sampled."""

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

    def close(self) -> None:
        """Close the generator too: a suspended one holds this feed,
        and through it the backend and the session, in a cycle."""
        super().close()
        self.pending.close()


def usable_cores() -> int:
    """The cores this process may run on — a host property."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class PlanOrderFeed(Feed):
    """One ``producer`` thread drains :meth:`~Feed._items` into one
    buffer per trainer, handing each item over as soon as it is
    sampled, ahead of the lanes.

    The items train on **lanes**: the caller's thread plus one
    ``lane<k>`` thread per further lane, up to ``min(trainers, usable
    cores)``, all meeting at a barrier before and after the iteration.
    Lanes take items in trainer order under one lock, and a free lane
    loads and trains the next one taken; the answers come back in
    trainer order. The caller's thread takes the first item before it
    releases the helpers, so trainer 0's batch (the CPU trainer's, on a
    hybrid session) always trains on it: a lane's heap then keeps the
    high water of the batches it trains, not of the largest batch on
    every lane (a 768/384/384 split peaks where 512/512/512 does). A
    lane that dies fails the feed, which breaks the
    barrier; a lane that misses it past the watchdog is a
    :class:`~repro.errors.StageTimeoutError`."""

    def __init__(self, backend, iterations: int, depth: int, report,
                 rows: list) -> None:
        super().__init__(backend, iterations, report, rows)
        self.lanes = lanes = min(len(self.session.trainers),
                                 usable_cores())
        self.barrier = threading.Barrier(lanes, timeout=self.timeout_s)
        self.lock = threading.Lock()
        self.buffers = [PrefetchBuffer(depth)
                        for _ in self.session.trainers]
        self.threads = [threading.Thread(
            target=backend.scoped(self._produce), daemon=True,
            name="producer"), *(threading.Thread(
                target=backend.scoped(self._help), daemon=True,
                name=f"lane{k}") for k in range(1, lanes))]

    def _produce(self) -> None:
        try:
            for idx, item in self._items():
                self.buffers[idx].put(item, timeout=self.timeout_s)
            for b in self.buffers:
                b.close()
        except BaseException as exc:
            self.fail(exc)

    def take(self, idx: int, it: int) -> Prepared:
        """Trainer ``idx``'s item for iteration ``it``; a feed that
        died surfaces its own exception, not the close it caused."""
        try:
            item = self.buffers[idx].get(timeout=self.timeout_s)
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
        self.it, self.train_one = it, train_one
        self.answers = [None] * len(self.session.trainers)
        self.pending = iter(range(len(self.session.trainers)))
        try:
            first = self._next()
            self.barrier.wait()
            self._lane(first)
            self.barrier.wait()
        except threading.BrokenBarrierError:
            raise self.error or StageTimeoutError(
                f"a lane missed the barrier in {self.timeout_s}s") from None
        return self.answers

    def _next(self):
        """The next ``(idx, item)`` in trainer order, or ``None``."""
        with self.lock:
            idx = next(self.pending, None)
            return None if idx is None else (idx, self.take(idx, self.it))

    def _lane(self, taken=None) -> None:
        taken = taken or self._next()
        while taken is not None:
            idx, item = taken
            self.answers[idx] = self.train_one(idx, item)
            taken = self._next()

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


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

class InProcessBackend(ExecutionBackend):
    """Run synchronous-SGD training in this process, the feed's
    sampling thread (if any) ahead of its training lanes and a
    synchronize tail on the caller's thread.

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
        the all-reduce stays a per-iteration barrier. A statistical
        preset's report carries ``trained_targets``, the coverage
        evidence its tier checks. A run that raises leaves every
        ``session.samplers`` stream where it found it."""
        if iterations < 1:
            raise ProtocolError("iterations must be >= 1")
        s = self.session
        report = RunReport(iterations=iterations)
        if self.conformance_tier == "statistical":
            report.trained_targets = []
        rows: list[list[float]] = []
        feed = self.feed(self, iterations, self.window(), report, rows)
        streams = [sampler.stream_state for sampler in s.samplers]
        counters_before = self.counters.snapshot()
        start = time.perf_counter()
        try:
            for t in feed.threads:
                t.start()
            with scoped_counters(self.counters):
                for it in range(iterations):
                    # Listing 1's trainer block, then the synchronize
                    # tail on this thread, which adjudicates DRM only
                    # under an estimator.
                    sizes, answers = zip(*feed.train(it, self._train_one))
                    self.end_iteration(
                        it, sizes, answers, report, rows,
                        adjudicate=self.estimator is not None,
                        lanes=feed.lanes)
        except BaseException:
            # A thread that failed to start included: no feed thread
            # outlives the run, and every sampler stream is rewound,
            # as a failed process run never hands one back.
            feed.join()
            for sampler, state in zip(s.samplers, streams):
                sampler.stream_state = state
            raise
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
        report.fold_buffers([
            {"train": (b.total_puts, b.high_water, b.mean_occupancy)}
            for b in feed.buffers])
        report.close_timeline(s, rows)
        return report

    def _train_one(self, idx: int, item: Prepared):
        """Load and train trainer ``idx``'s item on the calling lane:
        ``(batch size, Reply)``, or ``(0, None)`` for an idle one."""
        if item.mb is None:
            return 0, None
        s = self.session
        trainer = s.trainers[idx]
        t0 = time.perf_counter()
        x0, scales = s.pipeline.load_codes(item.mb, trainer.kind)
        t1 = time.perf_counter()
        rep = trainer.train_minibatch(item.mb, x0, item.labels, s.degrees,
                                      scales)
        item.stage_s["load"] = t1 - t0
        item.stage_s["train"] = time.perf_counter() - t1
        return int(item.work.size), Reply(rep.loss, rep.accuracy,
                                          item.stage_s, item.mb.stats())


# ---------------------------------------------------------------------------
# The presets (registry names)
# ---------------------------------------------------------------------------

class ThreadedBackend(InProcessBackend):
    """``threaded`` — the Listing-1 protocol on live threads,
    **bit-identical** to the virtual reference: one producer samples in
    plan order and adjudicates DRM as it produces, the lanes load and
    train an iteration's batches side by side, the caller's thread
    synchronizes. Held to the strict tier, hybrid + DRM + int8
    transfer included."""

    name = "threaded"


class PipelinedBackend(InProcessBackend):
    """``pipelined`` — ``threaded`` plus an
    :class:`~repro.runtime.resctl.OnlineEstimator` that calibrates the
    DRM step against realized stage seconds, across runs: the same
    producer samples ahead through the session's window and the same
    lanes train, but the consumer takes the DRM step after each
    iteration trained. Bit-identical to ``threaded`` where the
    estimator moves no quota (no timing plane, or DRM off);
    statistical under DRM."""

    name = "pipelined"
    conformance_tier = "statistical"

    def __init__(self, session, timeout_s: float = 60.0) -> None:
        super().__init__(session, timeout_s=timeout_s)
        self.estimator = OnlineEstimator()
