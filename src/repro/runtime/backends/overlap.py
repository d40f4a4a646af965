"""What the look-ahead planes share, written once.

A run's look-ahead window follows one rule, :func:`session_window`:
the session's ``prefetch_depth`` under two-stage prefetch, else 1
(lock-step). :meth:`~.base.ExecutionBackend.window` opens it for every
plane, fixed for the whole run. The pieces:

* :class:`StageChain` — one trainer's sample-stage thread between
  two backpressured :class:`~repro.runtime.prefetch.PrefetchBuffer`
  queues, which ``pipelined``'s :class:`~.pipelined.ChainFeed` feeds,
  starts, drains and joins through ``bufs`` and ``thread``; the
  feature load runs on the training lane that takes the item;
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

#: A chain's buffers, keyed by the stage each buffer *feeds*:
#: ``sample`` holds dealt work awaiting the sample thread, ``train``
#: holds sampled batches awaiting a training lane.
CHAIN_STAGES = ("sample", "train")


# ---------------------------------------------------------------------------
# The sample-stage chain
# ---------------------------------------------------------------------------

class Prepared:
    """One work item on its way to a training lane, through a
    :class:`StageChain` or straight from the in-process plan-order
    generator. It carries the sampled batch and its labels, never
    feature rows: the lane that trains it loads them.

    ``work`` is what the sample stage consumes (target ids); ``None``
    marks an idle iteration, which passes through untouched so each
    trainer's chain carries exactly one item per iteration.
    ``stage_s`` collects the realized wall time of each stage under the
    raw stage names the resctl fold understands (``sample`` / ``load``
    / ``train``).
    """

    __slots__ = ("it", "work", "mb", "labels", "stage_s")

    def __init__(self, it: int, work) -> None:
        self.it = it
        self.work = work
        self.mb = self.labels = None
        self.stage_s: dict[str, float] = {}


class StageChain:
    """One trainer's sample-stage thread between two backpressured
    buffers (:data:`CHAIN_STAGES`).

    Parameters
    ----------
    stages:
        The per-item stage implementation — anything shaped like
        :class:`~repro.runtime.stage_pipeline.StagePipeline`
        (``sample(work)``, ``labels_for(mb)``): the session's pipeline.
    depth:
        Capacity of both buffers: the run's look-ahead window.
    timeout_s:
        Monotonic-deadline watchdog on every blocking handoff.
    on_error:
        Called with the exception when the thread dies; the owner
        records it and closes whatever must wake up.
    name:
        The thread's name (the leak fixture in ``tests/conftest.py``
        keys off the in-process ``pipeline-`` prefix).
    wrap:
        Optional decorator applied to the thread target (the
        in-process plane enlists it into its session-scoped kernel
        counters).
    """

    def __init__(self, stages, depth: int, timeout_s: float,
                 on_error: Callable[[BaseException], None], name: str,
                 wrap: Callable | None = None) -> None:
        self.stages = stages
        self.timeout_s = timeout_s
        self._on_error = on_error
        self.bufs = {stage: PrefetchBuffer(depth)
                     for stage in CHAIN_STAGES}
        self.thread = threading.Thread(
            target=self._run if wrap is None else wrap(self._run),
            daemon=True, name=name)

    def _run(self) -> None:
        """Move items ``sample → train``, sampling and labelling each
        one; a closed-and-drained source closes the destination."""
        try:
            while True:
                item = self.bufs["sample"].get(timeout=self.timeout_s)
                if item is None:
                    self.bufs["train"].close()
                    return
                if item.work is not None:
                    t0 = time.perf_counter()
                    item.mb = self.stages.sample(item.work)
                    item.stage_s["sample"] = time.perf_counter() - t0
                    item.labels = self.stages.labels_for(item.mb)
                self.bufs["train"].put(item, timeout=self.timeout_s)
        except BaseException as exc:
            self._on_error(exc)

    # -- owner surface -------------------------------------------------
    def feed(self, it: int, work) -> None:
        """Hand iteration ``it``'s work (``None`` = idle) to the sample
        stage."""
        self.bufs["sample"].put(Prepared(it, work),
                                timeout=self.timeout_s)

    def end(self) -> None:
        """No more work: the close reaches the thread, which drains
        what is in flight and exits."""
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
