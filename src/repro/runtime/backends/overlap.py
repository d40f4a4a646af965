"""What the look-ahead planes share, written once.

A run's look-ahead window follows one rule, :func:`session_window`:
the session's ``prefetch_depth`` under two-stage prefetch, else 1
(lock-step). :meth:`~.base.ExecutionBackend.window` opens it for every
plane, fixed for the whole run. The pieces:

* :class:`StageChain` — one trainer's ``sample → gather → transfer``
  stage threads over backpressured
  :class:`~repro.runtime.prefetch.PrefetchBuffer` queues, which
  ``pipelined``'s :class:`~.pipelined.ChainFeed` feeds, starts, drains
  and joins through ``bufs`` and ``threads``;
* :func:`session_window` — the window rule;
* :class:`LookaheadDealer` — the bounded window over a work source the
  process driver deals through (pure; hypothesis-tested).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Iterator

from ...errors import ProtocolError
from ..prefetch import PrefetchBuffer

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
        Capacity of every buffer: the run's look-ahead window.
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
# The look-ahead window
# ---------------------------------------------------------------------------

def session_window(session) -> int:
    """The look-ahead window a run opens with, written once: the
    session's ``prefetch_depth`` under two-stage prefetch, else 1
    (lock-step)."""
    cfg = session.sys_cfg
    return cfg.prefetch_depth if cfg.prefetch else 1


class LookaheadDealer:
    """A bounded look-ahead window over a plan iterator.

    Pure sequencing logic, extracted from the parent's drive loop so
    the look-ahead invariants are directly property-testable without
    live workers:

    * :meth:`refill` deals planned iterations until the window holds
      ``depth`` in-flight entries (or the plan is dry) and returns the
      newly dealt ones, in plan order;
    * :meth:`retire` pops the oldest in-flight iteration — the one the
      caller synchronizes next.

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
        self.depth = depth
        self._window: deque = deque()
        self._dry = False
        #: Max in-flight count ever observed (the bounded-queue audit).
        self.high_water = 0

    @property
    def in_flight(self) -> int:
        return len(self._window)

    def refill(self) -> list:
        """Deal up to the window bound; returns the newly dealt
        ``(iteration, planned)`` pairs in plan order."""
        dealt = []
        while not self._dry and len(self._window) < self.depth:
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
