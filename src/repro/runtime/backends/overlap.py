"""What the look-ahead planes share, written once.

A run's look-ahead window follows one rule, :func:`session_window`:
the session's ``prefetch_depth`` under two-stage prefetch, else 1
(lock-step). :meth:`~.base.ExecutionBackend.window` opens it for every
plane; a preset that installs a :class:`DepthPolicy` seeds its first
window from the same rule and adapts it from there. The pieces:

* :class:`StageChain` — one trainer's ``sample → gather → transfer``
  stage threads over backpressured
  :class:`~repro.runtime.prefetch.PrefetchBuffer` queues, which
  ``pipelined``'s :class:`~.pipelined.ChainFeed` feeds, starts, drains
  and joins through ``bufs`` and ``threads``;
* :class:`DepthPolicy` — the adaptive look-ahead of ``pipelined`` and
  ``process_pipelined``: seed the first window, clamp by the node
  allocator's grant, resize from calibrated stage-time ratios (its
  estimator observes and calibrates every timing step), record the
  history;
* :class:`LookaheadDealer` — the bounded window over a work source the
  process driver deals through (pure; hypothesis-tested).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator

from ...errors import ProtocolError
from ...perfmodel.model import StageTimes
from ..prefetch import PrefetchBuffer
from ..resctl import DEFAULT_ALLOCATOR, NodeAllocator, OnlineEstimator

#: Producer stages in pipeline order (the train stage consumes).
PRODUCER_STAGES = ("sample", "gather", "transfer")

#: A chain's buffers, keyed by the stage each buffer *feeds*:
#: ``sample`` holds dealt work awaiting the sample thread, ``train``
#: holds prepared batches awaiting the train+sync consumer.
CHAIN_STAGES = (*PRODUCER_STAGES, "train")


# ---------------------------------------------------------------------------
# The stage-thread chain
# ---------------------------------------------------------------------------

class Prepared:
    """One work item travelling down a :class:`StageChain` (or handed
    straight to the consumer by the in-process plan-order producer).

    ``work`` is what the sample stage consumes (target ids, or a
    parent-sampled wire batch); ``None`` marks an idle iteration, which
    passes through every stage untouched so each trainer's chain
    carries exactly one item per iteration. ``stage_s`` collects the
    realized wall time of each stage under the raw stage names the
    resctl fold understands (``sample`` / ``load`` / ``transfer``).
    """

    __slots__ = ("it", "work", "mb", "x0", "labels", "stage_s")

    def __init__(self, it: int, work) -> None:
        self.it = it
        self.work = work
        self.mb = self.x0 = self.labels = None
        self.stage_s: dict[str, float] = {}


class StageChain:
    """One trainer's ``sample → gather → transfer`` stage threads.

    Parameters
    ----------
    stages:
        The per-item stage implementation — anything shaped like
        :class:`~repro.runtime.stage_pipeline.StagePipeline`
        (``sample(work)``, ``gather(mb)``, ``transfer(x0, kind)`` —
        in place on the rows ``gather`` just returned —
        ``labels_for(mb)``): the session's pipeline.
    kind:
        The consuming trainer's kind (selects the transfer policy).
    depth:
        Initial capacity of every buffer (the feed resizes them
        live).
    timeout_s:
        Monotonic-deadline watchdog on every blocking handoff.
    on_error:
        Called with the exception when a stage thread dies; the owner
        records it and closes whatever must wake up.
    name:
        ``str.format`` template for thread names, given the stage
        (the leak fixture in ``tests/conftest.py`` keys off
        the in-process ``pipeline-`` prefix).
    wrap:
        Optional decorator applied to every thread target (the
        in-process plane enlists stage threads into its session-scoped
        kernel counters).
    """

    def __init__(self, stages, kind: str, depth: int, timeout_s: float,
                 on_error: Callable[[BaseException], None], name: str,
                 wrap: Callable | None = None) -> None:
        self.stages = stages
        self.kind = kind
        self.timeout_s = timeout_s
        self._on_error = on_error
        self.bufs = {stage: PrefetchBuffer(depth)
                     for stage in CHAIN_STAGES}
        steps = (("sample", "gather", "sample", self._sample),
                 ("gather", "transfer", "load", self._gather),
                 ("transfer", "train", "transfer", self._transfer))
        self.threads = []
        for src, dst, raw, step in steps:
            target = self._run if wrap is None else wrap(self._run)
            self.threads.append(threading.Thread(
                target=target, args=(src, dst, raw, step), daemon=True,
                name=name.format(src)))

    # -- the three producer steps --------------------------------------
    def _sample(self, item: Prepared) -> None:
        item.mb = self.stages.sample(item.work)

    def _gather(self, item: Prepared) -> None:
        item.x0 = self.stages.gather(item.mb)

    def _transfer(self, item: Prepared) -> None:
        item.x0 = self.stages.transfer(item.x0, self.kind)
        item.labels = self.stages.labels_for(item.mb)

    def _run(self, src: str, dst: str, raw: str, step) -> None:
        """One stage thread: move items ``src → dst``, timing the step;
        a closed-and-drained source closes the destination."""
        try:
            while True:
                item = self.bufs[src].get(timeout=self.timeout_s)
                if item is None:
                    self.bufs[dst].close()
                    return
                if item.work is not None:
                    t0 = time.perf_counter()
                    step(item)
                    item.stage_s[raw] = time.perf_counter() - t0
                self.bufs[dst].put(item, timeout=self.timeout_s)
        except BaseException as exc:
            self._on_error(exc)

    # -- owner surface -------------------------------------------------
    def feed(self, it: int, work) -> None:
        """Hand iteration ``it``'s work (``None`` = idle) to the sample
        stage."""
        self.bufs["sample"].put(Prepared(it, work),
                                timeout=self.timeout_s)

    def end(self) -> None:
        """No more work: the close cascades stage by stage, so every
        thread drains what is in flight and exits."""
        self.bufs["sample"].close()

    def buffer_stats(self) -> dict[str, tuple[int, int, float]]:
        return {stage: (b.total_puts, b.high_water, b.mean_occupancy)
                for stage, b in self.bufs.items()}


# ---------------------------------------------------------------------------
# The look-ahead depth policy
# ---------------------------------------------------------------------------

def session_window(session) -> int:
    """The look-ahead window a run opens with, written once: the
    session's ``prefetch_depth`` under two-stage prefetch, else 1
    (lock-step)."""
    cfg = session.sys_cfg
    return cfg.prefetch_depth if cfg.prefetch else 1


def seed_depth(session, cap: int, estimator=None) -> int:
    """Effective look-ahead for a depth policy's first window, before
    any timing feedback exists.

    A timing+prefetch session starts from the floor — there is no
    realized signal yet, so claiming the full configured window is
    unjustified — or from the calibrated steady-state estimate once the
    estimator is warm (e.g. a previous run through the same backend
    instance). Sessions that will never adapt (functional-only, or
    prefetch off) keep :func:`session_window`: with no feedback loop,
    a floor-seeded window would throttle the whole run, not just its
    first iterations.
    """
    if not (session.has_timing and session.sys_cfg.prefetch):
        return session_window(session)
    if estimator is not None and estimator.is_warm():
        times = estimator.calibrate(session.stage_times(None, None))
        return adaptive_depth(times, cap=cap)
    return 1


def adaptive_depth(times: StageTimes, cap: int, floor: int = 1) -> int:
    """Effective look-ahead from modelled stage-time ratios.

    The producer side of the pipeline needs roughly
    ``t_sample + t_load + t_transfer`` per batch; the consumer retires
    one batch every ``t_prop``. Keeping
    ``ceil(producer / consumer)`` batches in flight is just enough for
    the train stage never to wait on a producer in steady state
    (Little's law with the train stage as the service center); anything
    deeper only adds memory pressure. Clamped to ``[floor, cap]`` so
    the pipeline never starves (depth >= 1 keeps every stage able to
    hand one item forward) and never exceeds the configured cap.
    """
    if cap < floor or floor < 1:
        raise ProtocolError("need cap >= floor >= 1")
    producer = times.t_sample + times.t_load + times.t_transfer
    consumer = times.t_prop
    if producer <= 0.0 or not math.isfinite(producer):
        return floor
    if consumer <= 0.0 or not math.isfinite(consumer):
        return cap
    ratio = producer / consumer
    # Both operands can be finite while their ratio overflows to inf
    # (a denormal consumer); ceil(inf) raises, and an unboundedly
    # producer-bound pipeline wants the cap anyway.
    if not math.isfinite(ratio):
        return cap
    return max(floor, min(cap, math.ceil(ratio)))


class DepthPolicy:
    """The look-ahead depth of one overlapped backend, across runs.

    Owns the two depth knobs (``max_depth`` — defaults to 8 or the
    session's window, whichever is larger; a smaller explicit cap
    fails loudly — and ``allocator``) and the
    :class:`~repro.runtime.resctl.OnlineEstimator` every timing step
    of the backend observes and calibrates through — the estimator
    persists across runs, so a second run on the same backend starts
    warm. Per run: :meth:`run` brackets the allocator grant and seeds
    the first window (:func:`seed_depth`), :meth:`adapt` resizes it
    after each timing step (re-reading the grant's live cap).
    """

    def __init__(self, session, max_depth: int | None = None,
                 allocator: NodeAllocator | None = None) -> None:
        self.session = session
        self.depth = session_window(session)
        if max_depth is None:
            max_depth = max(8, self.depth)
        if max_depth < self.depth:
            raise ProtocolError("max_depth must be >= the session's "
                                "prefetch window")
        self.max_depth = max_depth
        self.allocator = allocator if allocator is not None \
            else DEFAULT_ALLOCATOR
        self.estimator = OnlineEstimator()
        self.grant = None

    def cap(self) -> int:
        """Live cap: ``max_depth`` clamped by the current grant."""
        cap = self.max_depth
        if self.grant is not None and not self.grant.released:
            cap = min(cap, self.grant.depth_cap)
        return max(1, cap)

    @contextmanager
    def run(self, name: str, report) -> Iterator[int]:
        """One run's depth lifecycle: claim a share of the node's
        look-ahead budget and seed the first window (yielded); the
        ``finally`` returns the share the moment the run ends, success
        or failure, so co-tenant sessions' caps rise immediately. On
        success the calibration digest lands on the report."""
        self.grant = self.allocator.register(
            name=f"{name}:{self.session.dataset.name}",
            max_depth=self.max_depth)
        try:
            self.depth = seed_depth(self.session, self.cap(),
                                    self.estimator)
            report.depth_history.append((0, self.depth))
            yield self.depth
        finally:
            self.grant.release()
            self.grant = None
        if self.session.has_timing:
            report.calibration = self.estimator.summary()

    def adapt(self, times: StageTimes | None, it: int, report) -> bool:
        """Resize from iteration ``it``'s stage times; returns whether
        the depth changed (recorded on the report at ``it + 1``)."""
        if times is None or not self.session.sys_cfg.prefetch:
            return False
        want = adaptive_depth(times, cap=self.cap())
        if want == self.depth:
            return False
        self.depth = want
        report.depth_history.append((it + 1, want))
        return True


# ---------------------------------------------------------------------------
# The bounded look-ahead window (pure — hypothesis-testable)
# ---------------------------------------------------------------------------

class LookaheadDealer:
    """A bounded look-ahead window over a plan iterator.

    Pure sequencing logic, extracted from the parent's drive loop so
    the look-ahead invariants are directly property-testable without
    live workers:

    * :meth:`refill` deals planned iterations until the window holds
      ``depth`` in-flight entries (or the plan is dry) and returns the
      newly dealt ones, in plan order;
    * :meth:`retire` pops the oldest in-flight iteration — the one the
      caller synchronizes next;
    * :meth:`set_depth` resizes the window live (the adaptive policy);
      shrinking never revokes shards already dealt, it only throttles
      future refills — exactly like
      :meth:`~repro.runtime.prefetch.PrefetchBuffer.resize`.

    Because dealing only ever *advances* the plan iterator, the
    concatenation of dealt shards is the plan's own sequence — look-
    ahead changes *when* shards are dealt, never *which* or in what
    order, so epoch coverage stays a plan property (the hypothesis
    suite pins this).
    """

    def __init__(self, plan_iter: Iterator, depth: int) -> None:
        if depth < 1:
            raise ProtocolError("look-ahead depth must be >= 1")
        self._plan_iter = plan_iter
        self._depth = depth
        self._window: deque = deque()
        self._dry = False
        #: Max in-flight count ever observed (the bounded-queue audit).
        self.high_water = 0

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def in_flight(self) -> int:
        return len(self._window)

    def set_depth(self, depth: int) -> None:
        if depth < 1:
            raise ProtocolError("look-ahead depth must be >= 1")
        self._depth = depth

    def refill(self) -> list:
        """Deal up to the window bound; returns the newly dealt
        ``(iteration, planned)`` pairs in plan order."""
        dealt = []
        while not self._dry and len(self._window) < self._depth:
            nxt = next(self._plan_iter, None)
            if nxt is None:
                self._dry = True
                break
            self._window.append(nxt)
            dealt.append(nxt)
        self.high_water = max(self.high_water, len(self._window))
        return dealt

    def retire(self):
        """Pop the oldest in-flight iteration, or ``None`` when both
        the window and the plan are exhausted."""
        if not self._window:
            return None
        return self._window.popleft()
