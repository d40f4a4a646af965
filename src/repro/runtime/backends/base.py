"""The execution-backend protocol.

An :class:`ExecutionBackend` realizes the training protocol described by
a :class:`~repro.runtime.core.TrainingSession` on some execution
substrate. Backends never construct samplers, replicas, synchronizers or
optimizers — the session owns construction; backends own *execution
strategy* only. That is the whole point of the split: adding a new way to
run training (process pool, async pipeline, multi-node sharding) means
implementing this interface, not forking the runtime.

Contract every backend must honor (so results are backend-independent):

* batches come from the session's :class:`~repro.runtime.core.BatchPlan`
  — one permutation per epoch, per-trainer quota slices in trainer order;
* mini-batches are sampled through ``session.sampler`` in plan order
  (the sampler's RNG stream is part of the reproducibility contract);
* features load through ``session.load_features`` (which applies the
  transfer-quantization policy for accelerator trainers);
* gradients synchronize through ``session.synchronizer`` with batch-size
  weights, after which *every* optimizer steps (idle trainers receive
  the averaged gradients too, keeping replicas consistent);
* DRM (when enabled) sees iteration ``i``'s realized stage times before
  iteration ``i + 1``'s quotas are read — **unless** the backend
  declares the ``statistical`` conformance tier, which relaxes exactly
  this clause (and therefore bit-parity) in exchange for overlap.

Each backend declares which tier of the conformance kit it targets via
:attr:`ExecutionBackend.conformance_tier`:

* ``"strict"`` — lock-step execution, held to **bit-identical** parity
  with the virtual reference (losses, DRM trajectory, parameters);
* ``"statistical"`` — stages overlap and stochastic draws may interleave
  across stage threads, so the kit instead asserts exact epoch coverage,
  work conservation, DRM-trajectory shape, and tolerance-based loss /
  parameter closeness.

The kit (``tests/integration/backend_conformance.py``) reads the flag
off the registered class, so third-party backends opt into the right
matrix by setting one class attribute.
"""

from __future__ import annotations

import abc
from typing import Any, ClassVar

from ...kernels import KernelCounters, scoped_counters
from ..core import TrainingSession
from ..resctl import StageMonitor


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

    #: Does this backend overlap the next iteration's feature transfer
    #: with the current iteration's gradient pull on the PCIe link?
    #: Gates the timing plane's duplex-contention derate
    #: (:meth:`TrainingSession.duration_row`). ``True`` by default:
    #: the virtual reference models the overlapped pipeline whenever
    #: prefetching is configured, and the strict planes must price
    #: their rows identically to it by contract. A lock-step
    #: statistical plane whose transfer strictly precedes the pull
    #: (the worker-sampling plane) overrides this to ``False``.
    overlaps_transfer: ClassVar[bool] = True

    def __init__(self, session: TrainingSession) -> None:
        self.session = session
        #: Realized per-stage wall-time monitor (resctl stage 1) —
        #: an explicit **session-scoped handle**: every live plane
        #: feeds its own; overlapped planes additionally calibrate
        #: from it through their estimator. Two concurrent sessions
        #: (train + serve, or two trainings) never share one.
        self.monitor = StageMonitor()
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

    def record_timing(self, report, rows: list, stats: list, it: int,
                      policy=None, realized: dict | None = None):
        """One timing/DRM step for iteration ``it`` over its per-trainer
        batch stats (trainer order, ``None`` for an idle trainer),
        recorded on ``report`` and ``rows``; returns the
        :class:`~repro.perfmodel.model.StageTimes`. ``policy`` is the
        look-ahead :class:`~.overlap.DepthPolicy` whose estimator
        observes ``realized`` (and calibrates, under
        ``depth_source="realized"``); ``None`` keeps the step byte-equal
        to the uncalibrated contract the strict tier pins."""
        s = self.session
        stats_cpu = None
        stats_accel: list = []
        for trainer, st in zip(s.trainers, stats):
            if trainer.kind == "cpu":
                stats_cpu = st
            else:
                stats_accel.append(st)
        times, row, split = s.timing_step(
            stats_cpu, stats_accel, it,
            estimator=None if policy is None else policy.estimator,
            realized=realized,
            calibrate=policy is not None and policy.calibrate,
            overlapped=self.overlaps_transfer)
        rows.append(row)
        report.stage_history.append(times)
        report.split_history.append(split)
        return times

    def run_epoch(self, max_iterations: int | None = None) -> Any:
        """Execute one epoch (or ``max_iterations``, whichever is
        less) of functional training.

        Every live backend implements :meth:`run` and inherits this
        clamp to the session's epoch length; a backend with its own
        epoch loop (the virtual plane) overrides this instead. Returns
        the backend's report (:class:`~.report.RunReport` for every
        live plane) — all reports expose at least ``iterations`` and
        per-iteration ``losses``.
        """
        iters = self.session.iterations_per_epoch()
        if max_iterations is not None:
            iters = min(iters, max_iterations)
        return self.run(iters)

    def run(self, iterations: int) -> Any:
        """Execute exactly ``iterations`` synchronized iterations,
        rolling into fresh epoch permutations as needed."""
        raise NotImplementedError(
            f"{type(self).__name__} implements neither run() nor "
            "run_epoch()")

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
