"""The execution-backend protocol.

An :class:`ExecutionBackend` realizes the training protocol described by
a :class:`~repro.runtime.core.TrainingSession` on some execution
substrate. Backends never construct samplers, replicas, synchronizers or
optimizers — the session owns construction; backends own *execution
strategy* only. That is the whole point of the split: adding a new way to
run training (process pool, async pipeline, multi-node sharding) means
implementing this interface — :meth:`ExecutionBackend.run`, the one
abstract entry point (``run_epoch`` is its inherited clamp to one
epoch) — not forking the runtime.

Contract every backend must honor (so results are backend-independent):

* batches come from the session's work source (the
  :class:`~repro.runtime.core.BatchPlan`) — one permutation per epoch,
  per-trainer quota slices in trainer order;
* trainer ``t``'s mini-batches are sampled from ``session.samplers[t]``
  in plan order, in whichever thread or process trains them (each
  trainer's RNG stream is part of the reproducibility contract);
* features load through the stage pipeline's ``load_codes`` (an
  accelerator batch under a lossy transfer policy is gathered from
  the store's wire table, encoded once; an int8 batch comes as codes
  plus the per-row scales the trainer's input layer folds);
* every iteration ends in :meth:`ExecutionBackend.end_iteration` —
  Listing 1's synchronizer block, written once: ``DONE`` per trainer,
  the batch-size-weighted all-reduce through ``session.synchronizer``,
  ``SYNC``, *every* optimizer steps with its ``ACK`` (idle trainers
  receive the averaged gradients too, keeping replicas consistent),
  ``ITER``, recorded in the report's ``protocol_log``;
* DRM (when enabled) sees iteration ``i``'s realized stage times before
  iteration ``i + 1``'s quotas are read — **unless** the backend
  declares the ``statistical`` conformance tier, which relaxes exactly
  this clause (and therefore bit-parity) in exchange for overlap.

Each backend declares which tier of the conformance kit it targets via
:attr:`ExecutionBackend.conformance_tier`:

* ``"strict"`` — lock-step execution, held to **bit-identical** parity
  with the virtual reference (losses, DRM trajectory, parameters);
* ``"statistical"`` — stages overlap (a calibrated DRM step trailing
  its producer, or DRM quotas lagging a look-ahead window), so
  the kit instead asserts exact epoch coverage,
  work conservation, DRM-trajectory shape, and tolerance-based loss /
  parameter closeness.

The kit (``tests/integration/backend_conformance.py``) reads the flag
off the registered class, so third-party backends opt into the right
matrix by setting one class attribute.
"""

from __future__ import annotations

import abc
import time
from typing import Any, Callable, ClassVar, Sequence

import numpy as np

from ...kernels import KernelCounters, scoped_counters
from ..core import TrainingSession
from ..protocol import Signal
from ..resctl import fold_worker_realized
from .report import Reply


class ExecutionBackend(abc.ABC):
    """Base class for pluggable execution strategies.

    Parameters
    ----------
    session:
        The shared runtime core this backend executes.
    """

    #: Registry key; subclasses override.
    name: ClassVar[str] = ""

    #: Which conformance tier this backend targets: ``"strict"``
    #: (bit-identical to the virtual reference — the default) or
    #: ``"statistical"`` (overlapped execution; the kit asserts
    #: coverage, conservation and closeness instead of bit-parity).
    conformance_tier: ClassVar[str] = "strict"

    #: The :class:`~repro.runtime.resctl.OnlineEstimator` a preset's
    #: ``__init__`` installs to calibrate its timing/DRM step against
    #: realized stage seconds (it persists across runs); ``None`` keeps
    #: the uncalibrated contract the strict tier pins.
    estimator = None

    #: Run lock-step (a window of 1) under any config, so DRM sees
    #: every iteration before the next one is sliced, prefetch or not.
    lockstep: ClassVar[bool] = False

    def __init__(self, session: TrainingSession) -> None:
        self.session = session
        #: Session-scoped kernel-traffic handle: the in-process planes
        #: enlist their run/stage threads into it
        #: (:func:`repro.kernels.scoped_counters`), so a report's
        #: ``kernel_stats`` counts only this backend's dispatches even
        #: when other sessions run concurrently in the same process.
        self.counters = KernelCounters()

    def scoped(self, fn):
        """Wrap a thread target so that thread's kernel traffic also
        lands in :attr:`counters` — ``kernel_stats`` then counts only
        this backend's dispatches even when co-tenant sessions overlap
        in this process."""
        def run(*args):
            with scoped_counters(self.counters):
                fn(*args)
        return run

    def window(self) -> int:
        """This run's look-ahead window, the one place any plane reads
        it, fixed for the whole run: the session's ``prefetch_depth``
        under two-stage prefetch, else 1 (lock-step) — and 1 under any
        config on a :attr:`lockstep` preset."""
        cfg = self.session.sys_cfg
        return cfg.prefetch_depth if cfg.prefetch and not self.lockstep \
            else 1

    def record_timing(self, report, rows: list, stats: list, it: int,
                      realized: dict | None = None) -> None:
        """One timing/DRM step for iteration ``it`` over its per-trainer
        batch stats (trainer order, ``None`` for an idle trainer),
        recorded on ``report`` and ``rows``. Under an
        :attr:`estimator` the step observes ``realized``, is
        calibrated, and leaves the estimator's digest in
        ``report.calibration``; without one it stays byte-equal to the
        uncalibrated contract the strict tier pins."""
        s = self.session
        stats_cpu = None
        stats_accel: list = []
        for trainer, st in zip(s.trainers, stats):
            if trainer.kind == "cpu":
                stats_cpu = st
            else:
                stats_accel.append(st)
        times, row, split = s.timing_step(
            stats_cpu, stats_accel, it, estimator=self.estimator,
            realized=realized)
        rows.append(row)
        report.stage_history.append(times)
        report.split_history.append(split)
        if self.estimator is not None:
            report.calibration = self.estimator.summary()

    def end_iteration(self, it: int, sizes: Sequence[int],
                      answers: Sequence[Reply | None], report,
                      rows: list, *,
                      publish: Callable | None = None,
                      adjudicate: bool = True,
                      lanes: int | None = None) -> None:
        """Listing 1's synchronizer block for iteration ``it``, the one
        tail every plane ends each iteration in. ``answers`` holds each
        trainer's :class:`~.report.Reply` in trainer order (``stats``
        set), ``None`` for an idle trainer; ``sizes`` are the batch
        sizes the all-reduce weighs them by.

        Every trainer raises ``DONE`` — an idle one after zeroing its
        gradients, so it joins the all-reduce with weight 0 — then the
        synchronizer all-reduces, ``publish(avg)`` (if given) hands the
        average on before any optimizer steps, ``SYNC``, every
        optimizer steps and raises ``ACK``, ``ITER``. The iteration's
        loss, accuracy and edges land on ``report``, and each busy
        trainer's ``stage_s`` is billed to ``report.stage_seconds``
        (:meth:`~.report.RunReport.add_stage_seconds` — the one writer,
        on every plane). With ``adjudicate`` and a timing plane it also
        takes the timing/DRM step (:meth:`record_timing`) on the
        iteration's realized stage map (the all-reduce timed here as
        ``sync``), folded over the ``lanes`` the trainers shared
        (:func:`~repro.runtime.resctl.fold_worker_realized`; ``None``
        for one lane per trainer)."""
        s = self.session
        log = report.protocol_log
        busy = [(trainer, a) for trainer, a in zip(s.trainers, answers)
                if a is not None]
        for trainer, answer in zip(s.trainers, answers):
            if answer is None:
                trainer.model.zero_grad()
            log.record(it, Signal.DONE, trainer.name)
        sync_start = time.perf_counter()
        avg = s.synchronizer.all_reduce(sizes, it)
        if publish is not None:
            publish(avg)
        log.record(it, Signal.SYNC, "synchronizer")
        for trainer, opt in zip(s.trainers, s.optimizers):
            opt.step()
            log.record(it, Signal.ACK, trainer.name)
        sync_s = time.perf_counter() - sync_start
        log.record(it, Signal.ITER_START, "runtime")

        report.losses.append(float(np.mean([a.loss for _, a in busy])))
        report.accuracies.append(
            float(np.mean([a.accuracy for _, a in busy])))
        for trainer, a in busy:
            report.total_edges += a.stats.total_edges
            report.add_stage_seconds(trainer.kind, a.stage_s)
        if not (adjudicate and s.has_timing):
            return
        realized = fold_worker_realized(
            [(trainer.kind, {} if a is None else a.stage_s)
             for trainer, a in zip(s.trainers, answers)], sync_s, lanes)
        self.record_timing(
            report, rows, [None if a is None else a.stats
                           for a in answers],
            it, realized)

    def run_epoch(self, max_iterations: int | None = None) -> Any:
        """Execute one epoch (or ``max_iterations``, whichever is
        less) of functional training: :meth:`run`, clamped to the
        session's epoch length. Returns the backend's report — every
        report exposes at least ``iterations``, per-iteration
        ``losses`` and the ``protocol_log``.
        """
        iters = self.session.iterations_per_epoch()
        if max_iterations is not None:
            iters = min(iters, max_iterations)
        return self.run(iters)

    @abc.abstractmethod
    def run(self, iterations: int) -> Any:
        """Execute exactly ``iterations`` synchronized iterations,
        rolling into fresh epoch permutations as needed, each ended by
        :meth:`end_iteration`."""

    def close(self) -> None:
        """Release whatever this backend keeps between runs (the
        process planes' workers and shared store; nothing on the
        in-process planes). Idempotent; a closed backend may run
        again. Callers never branch on the plane:
        ``with build_backend(name, session) as backend: ...``."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} over {self.session.dataset.name}>"
