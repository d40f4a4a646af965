"""The process plane: one driver, composed from two seams.

HyScale-GNN's scalability claim (paper §IV) is that process-level
parallel trainers, worker-side sampling, two-stage prefetch overlap and
placement *compose* on one node. :class:`ProcessBackend` is that
composition written once — open → [begin → drive → snapshot]* → close
over a :class:`~repro.runtime.shm.SharedFeatureStore`, with the
DistDGL-style division of labor: bulk through shared memory (features,
topology *and* the flat gradient vectors, which live in the store's
gradient slab), control through messages (work items, tokens, scalars
and stats are all a pipe carries between a run's ``init`` and its
``snapshot``). The workers and the store (a :class:`WorkerPool`) live
as long as the *backend*: opened lazily by the first ``run()``, reused
by every later one, released by ``close()``. Opening the pool moves
the dataset into the store: the session's features, labels and CSR
become read-only views of the segment before any worker forks, so the
node holds the dataset once, not once privately and once shared
(:meth:`ProcessBackend._create_store`). What varies between process
planes is two small choices:

* the **work source** (``self.work_source``) — the numbered stream of
  :class:`~repro.runtime.core.PlannedIteration` the parent deals:
  ``session.work_source`` (quota-cursor :class:`BatchPlan`) or a
  partition-mapped :class:`~.sharded.ShardPlan`;
* the **replica** (``replica_cls``) — the worker's per-item stages and
  model; a shard-aware replica bills rows by shard.

The parent deals each trainer's target ids and worker ``t`` samples
them from trainer ``t``'s stream, the one the in-process planes draw
from (``session.samplers[t]``): ``init`` hands the worker the stream's
position and the run's ``snapshot`` hands it back, so every run, on
any plane, continues each stream where the last completed run stopped.
A failed run hands nothing back.

Every worker runs one body, :class:`InlineBody`: it prepares a dealt
item when it arrives and trains it once the previous iteration's
update is applied, so dealing ahead overlaps the next batches' sample
and load with the parent's collect and all-reduce without a thread in
the worker. The body takes its per-item stages from the replica
(``replica_cls``), so shard-aware row accounting is a replica, not a
different serve loop.

There is exactly one drive loop: a :class:`~.overlap.LookaheadDealer`
over the work source, through the window
:meth:`~.base.ExecutionBackend.window` opens — the session's window
(``prefetch_depth`` under two-stage prefetch, else 1), fixed for the
whole run; the strict ``process`` preset declares ``lockstep``, a
window of 1 under any config. The parent always adjudicates DRM (on calibrated stage
times when the preset installs an
:class:`~repro.runtime.resctl.OnlineEstimator` as ``self.estimator``)
and always runs the per-iteration all-reduce barrier — only *dealing*
ever runs ahead, so Algorithm-1 adjustments lag the dealt window by
design (``RunReport.dealt_sizes``).

The registry names ``process``, ``process_sampling`` and
``process_pipelined`` (and ``sharded``, in :mod:`.sharded`) are
**presets**: class attributes plus, at most, an ``__init__``. The
author guide is ``docs/backends.md``.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ...errors import ProtocolError, StageTimeoutError, WorkerError
from ...kernels import KernelCounters, merge_counts, scoped_counters
from ...sampling.base import MiniBatch
from ..resctl import OnlineEstimator
from ..stage_pipeline import StagePipeline
from .base import ExecutionBackend
from .overlap import LookaheadDealer
from .report import Reply, RunReport


# ---------------------------------------------------------------------------
# Wire records (everything here crosses a pipe: keep it picklable)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild its trainer, plus its
    replica class (classes pickle by reference, so this travels under
    ``spawn`` too)."""

    index: int
    name: str
    kind: str                  # "cpu" | "accel"
    model_name: str
    dims: tuple[int, ...]
    seed: int
    learning_rate: float
    transfer_precision: str
    replica_cls: type


@dataclass
class WorkerSnapshot:
    """A worker's whole post-run state in one message: the parameters
    for the parity audit, the kernel counters of this run (the per-run
    bag the worker enlists while it serves the run's deals), and its
    sampler stream's position, which the session's sampler for this
    trainer takes over. Stage seconds are not in it: every reply
    already carried its batch's."""

    params: np.ndarray
    kernel_stats: dict[str, int]
    stream: dict | None


# ---------------------------------------------------------------------------
# Worker side: the replica (per-item stages + model), the body, the one
# message loop
# ---------------------------------------------------------------------------

class WorkerReplica(StagePipeline):
    """One worker's in-process state: the per-item stages over the
    shared-memory mapping (this *is* a
    :class:`~repro.runtime.stage_pipeline.StagePipeline`, so the body
    drives it exactly like the in-process planes drive the session's),
    plus the model replica, trainer node and optimizer (built here,
    never pickled)."""

    def __init__(self, store, spec: WorkerSpec) -> None:
        from ...nn.models import build_model
        from ...nn.optim import SGD
        from ...sampling import build_worker_sampler
        from ..trainer import TrainerNode

        # Trainer ``spec.index``'s sampler over the shared CSR, built
        # here so an unbuildable sampler family fails the ready
        # handshake with its traceback.
        super().__init__(build_worker_sampler(store, spec.index),
                         store.features, store.labels,
                         spec.transfer_precision)
        self.store = store
        self.spec = spec
        # The parent's table, read-only in the segment: an accelerator
        # worker gathers and decodes its codes and never encodes.
        self.wire_table = store.wire_table
        #: The gradient slab: row ``spec.index`` is this worker's flat
        #: gradient, the last row the parent's averaged update.
        self.grads = store.grads
        self.degrees = store.degrees     # private copy, outlives views
        self.model = build_model(spec.model_name, spec.dims, spec.seed)
        self.node = TrainerNode(spec.name, spec.kind, self.model,
                                spec.dims, spec.model_name)
        self.opt = SGD(self.model, lr=spec.learning_rate)

    def begin_run(self, params: np.ndarray, stream: dict | None) -> None:
        """Start a run on this (possibly reused) process exactly as a
        freshly spawned one would: the parent's *current* parameters
        and its trainer's stream position — reuse is numerically
        invisible."""
        self.model.set_flat_params(params)
        self.sampler.stream_state = stream

    def train(self, mb: MiniBatch, x0, labels,
              stage_s: dict[str, float], row_scales) -> Reply:
        """One forward/backward on a prepared batch (``x0`` and
        ``row_scales`` as :meth:`load_codes` returned them): the
        gradient goes to this worker's slab row, the rest into the
        reply."""
        t0 = time.perf_counter()
        rep = self.node.train_minibatch(mb, x0, labels, self.degrees,
                                        row_scales)
        stage_s["train"] = time.perf_counter() - t0
        self.grads[self.spec.index] = self.model.get_flat_grads()
        return Reply(loss=rep.loss, accuracy=rep.accuracy,
                     stage_s=stage_s, stats=mb.stats(),
                     echoed=np.asarray(mb.targets))

    def apply(self) -> None:
        """Mirror the parent's synchronized SGD step from the slab's
        average row — the same in-place update it applies to its mirror
        replicas, keeping all copies bit-equal without shipping
        parameters in steady state."""
        self.model.set_flat_grads(self.grads[-1])
        self.opt.step()

    def snapshot(self, counters: KernelCounters) -> WorkerSnapshot:
        return WorkerSnapshot(
            params=self.model.get_flat_params(),
            kernel_stats=counters.delta({}),
            stream=self.sampler.stream_state)


class InlineBody:
    """The one worker body: a dealt item is prepared when it arrives and
    trained once the previous iteration's update is applied.

    ``train`` samples and loads the item at once and queues it; the
    oldest queued item is answered (a ``result``, or an ``idle`` token)
    only while no earlier iteration awaits its ``apply``, and ``apply``
    answers the next. Under a look-ahead window the next batches'
    sample and load therefore overlap the parent's collect, all-reduce
    and IPC on the worker's one thread, and iteration ``i + 1`` is
    answered only after ``i`` was applied — so one slab row per worker
    plus one average row suffice at any depth, by construction.
    Every load gathers into a fresh array, so a queued item's rows stay
    its own until it trains.
    """

    def __init__(self, conn, replica: WorkerReplica) -> None:
        self.conn = conn
        self.replica = replica
        #: Prepared items in iteration order: ``(it, None)`` for an
        #: idle iteration, else ``(it, (mb, (x0, row_scales),
        #: stage_s))``. Non-empty only while ``awaiting`` is set.
        self.queue: deque = deque()
        #: The answered iteration whose ``apply`` has not arrived.
        self.awaiting: int | None = None
        #: This run's kernel traffic: the loop enlists it around every
        #: ``train`` and ``apply``.
        self.counters = KernelCounters()

    def train(self, it: int, work) -> None:
        prepared = None
        if work is not None:
            r = self.replica
            stage_s: dict[str, float] = {}
            t0 = time.perf_counter()
            mb = r.sample(work)
            stage_s["sample"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            loaded = r.load_codes(mb, r.spec.kind)
            stage_s["load"] = time.perf_counter() - t0
            prepared = (mb, loaded, stage_s)
        self.queue.append((it, prepared))
        self._answer()

    def apply(self, it: int) -> None:
        if it != self.awaiting:
            raise ProtocolError(
                f"worker {self.replica.spec.index} received apply for "
                f"iteration {it}, expected {self.awaiting}")
        self.replica.apply()
        self.awaiting = None
        self._answer()

    def _answer(self) -> None:
        """Train and answer the oldest queued item, unless an earlier
        iteration still awaits its update."""
        if self.awaiting is not None or not self.queue:
            return
        it, prepared = self.queue.popleft()
        if prepared is None:
            self.conn.send(("idle", it))  # every worker answers every deal
        else:
            r = self.replica
            mb, (x0, scales), stage_s = prepared
            self.conn.send(("result", it, r.train(
                mb, x0, r.labels_for(mb), stage_s, scales)))
        self.awaiting = it


def serve(conn, replica: WorkerReplica) -> None:
    """The one worker message loop. Runs until ``("stop",)`` or EOF,
    across any number of runs.

    ``init`` begins a run (per-run state re-derived, a fresh body);
    ``train`` / ``apply`` go to that body; the single ``snapshot`` ends
    the run. The process, its store mapping and its replica stay up for
    the next ``init``.
    """
    body = None
    conn.send(("ready", replica.spec.index))
    while True:
        msg = conn.recv()
        tag = msg[0]
        if tag in ("train", "apply"):
            with scoped_counters(body.counters):
                getattr(body, tag)(*msg[1:])
        elif tag == "init":
            # Nothing is in flight between runs (the parent retired and
            # applied every iteration before its ``snapshot``), so the
            # replica is safe to overwrite.
            replica.begin_run(msg[1], msg[2])
            body = InlineBody(conn, replica)
        elif tag == "snapshot":
            conn.send(("snapshot", replica.snapshot(body.counters)))
        elif tag == "stop":
            return
        else:
            raise ProtocolError(f"unknown message tag {tag!r}")


def worker_main(conn, manifest, spec: WorkerSpec) -> None:
    """Worker-process entry point (module-level: picklable under
    ``spawn``): attach the store, build the replica, serve, and tear
    down (close-never-unlink) no matter how the loop ends."""
    store = None
    try:
        from ..shm import SharedFeatureStore

        store = SharedFeatureStore.attach(manifest)
        serve(conn, spec.replica_cls(store, spec))
    except EOFError:
        pass                              # parent went away: just exit
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        if store is not None:
            store.close()                 # never unlink: parent owns it
        conn.close()


# ---------------------------------------------------------------------------
# Parent side: the pool and the driver
# ---------------------------------------------------------------------------

def _join(procs, timeout_s: float) -> None:
    """Join every process against one shared deadline."""
    deadline = time.monotonic() + timeout_s
    for proc in procs:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))


def _shutdown(conns, procs, store) -> None:
    """Stop workers and destroy the shared segment, in bounded time
    however many workers are wedged: every worker gets one shared 5 s
    grace to exit, then whatever is still alive is terminated. Never
    raises."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except Exception:
            pass
    _join(procs, 5.0)
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    _join(procs, 5.0)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    # A view still pinned (say, by the traceback of the failure that
    # got us here) keeps the mapping until it dies; the name goes now.
    store.close()
    store.unlink()


class WorkerPool:
    """Everything a process plane owns that outlives a run: the worker
    processes, the parent's ends of their pipes, and the shared store.

    :attr:`close` is the one teardown (:func:`_shutdown`), idempotent,
    and a ``weakref.finalize``: it also fires when the last reference
    to the pool drops and at interpreter exit, so a backend that is
    merely dropped — never closed — leaves no segment and no child.
    The callback holds the three resources, never the pool or its
    backend, so nothing here can sit in a reference cycle.
    """

    def __init__(self, store) -> None:
        self.store = store
        self.conns: list = []
        self.procs: list = []
        self.close = weakref.finalize(self, _shutdown, self.conns,
                                      self.procs, store)


class ProcessBackend(ExecutionBackend):
    """Run synchronous-SGD training on worker *processes*.

    Not registered itself — the registry holds presets of it.

    Parameters
    ----------
    session:
        The shared runtime core; one worker process is spawned per
        trainer replica (hybrid platform sessions: CPU + one per
        accelerator).
    timeout_s:
        Watchdog on every cross-process wait — a dead or wedged worker
        fails the run fast instead of hanging the suite.
    mp_context:
        ``multiprocessing`` start method (``"fork"`` where available —
        workers inherit the imported library for near-instant startup —
        else ``"spawn"``). Pass explicitly to override.
    """

    #: Seam: the worker's per-item stages + model (its ``train`` may
    #: bill rows by shard).
    replica_cls: ClassVar[type] = WorkerReplica

    def __init__(self, session, timeout_s: float = 120.0,
                 mp_context: str | None = None) -> None:
        super().__init__(session)
        if timeout_s <= 0:
            raise ProtocolError("timeout_s must be positive")
        if mp_context is None:
            methods = mp.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self.timeout_s = timeout_s
        self.mp_context = mp_context
        #: Seam: the numbered work stream the parent deals.
        self.work_source = session.work_source
        #: Extra ``SharedFeatureStore.create`` keywords (a
        #: partition-mapped preset passes ``parts``/``shard_spec``).
        self.store_extras: dict = {}
        #: The live workers + store; ``None`` until the first ``run()``
        #: and again after ``close()`` or a failed run.
        self._pool: WorkerPool | None = None

    # ------------------------------------------------------------------
    # Lifetime: open lazily, reuse, close
    # ------------------------------------------------------------------
    def _open(self) -> None:
        """Create the store and spawn one worker per trainer over it —
        the one place either happens — then wait for every worker to
        finish mapping the store and building its replica. The pool is
        installed before the first spawn, so a failure part-way is torn
        down by the same ``close()`` as everything else."""
        s = self.session
        # Resolve the context before creating the segment: an invalid
        # start method must not leak a dataset-sized /dev/shm block.
        ctx = mp.get_context(self.mp_context)
        pool = self._pool = WorkerPool(self._create_store())
        for idx, trainer in enumerate(s.trainers):
            spec = WorkerSpec(
                index=idx, name=trainer.name, kind=trainer.kind,
                model_name=trainer.model_name, dims=trainer.dims,
                seed=s.train_cfg.seed,
                learning_rate=s.train_cfg.learning_rate,
                transfer_precision=s.sys_cfg.transfer_precision,
                replica_cls=self.replica_cls)
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            pool.conns.append(parent_conn)
            proc = ctx.Process(
                target=worker_main,
                args=(child_conn, pool.store.manifest, spec),
                name=f"repro-{trainer.name}", daemon=True)
            proc.start()
            child_conn.close()            # parent keeps its end only
            pool.procs.append(proc)
        for idx in range(s.num_trainers):
            tag, widx = self._recv(idx)
            if tag != "ready" or widx != idx:
                raise WorkerError(
                    f"worker {idx} sent {tag!r}/{widx} instead of "
                    "its ready handshake")

    def close(self) -> None:
        """Stop the workers and unlink the store. Idempotent; the next
        ``run()`` opens a fresh pool."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def _create_store(self):
        """Create the shared-memory store the workers will attach. The
        manifest carries the sampler spec each worker rebuilds its
        trainer's sampler from; the gradient slab is one row per worker
        plus the average row, in the model's parameter dtype. When an
        accelerator trainer loads under a lossy policy, the session's
        wire table rides along — encoded (or raising, for an int8 store
        with a non-finite row) before the segment exists. The parent
        loads no batch, so it then drops its own copy: the segment's is
        the only one.

        The same holds for the dataset: the store :meth:`adopts
        <repro.runtime.shm.SharedFeatureStore.adopt>` it, and the
        session's pipeline follows, so the features, labels and CSR the
        session reads are read-only views of the segment and the
        private copies are freed before any worker forks (a forked
        worker would otherwise inherit them). The views outlive the
        pool: after ``close()`` the session reads the unlinked
        segment, on any plane, and a reopen copies from it into the
        next one."""
        from ..shm import SharedFeatureStore
        s = self.session
        table = None
        if any(t.kind == "accel" for t in s.trainers):
            table = s.pipeline.table("accel")
        flat = s.trainers[0].model.get_flat_params()
        store = SharedFeatureStore.create(
            s.dataset, sampler_spec=s.shared_sampler_spec(),
            grad_slab=np.zeros_like(
                flat, shape=(s.num_trainers + 1, flat.size)),
            wire_table=table, **self.store_extras)
        s.pipeline.wire_table = None
        store.adopt(s.dataset)
        s.pipeline.features = s.dataset.features
        s.pipeline.labels = s.dataset.labels
        return store

    # ------------------------------------------------------------------
    def run(self, iterations: int) -> RunReport:
        """Execute ``iterations`` synchronized iterations.

        The first call opens the pool (workers + store); every call is
        then bracketed by messages only: ``init`` (begin run) before
        the first deal, one ``snapshot`` round trip after the last
        sync. The pool stays up for the next call — release it with
        ``close()`` / ``with``; a backend dropped unclosed is cleaned
        up by the pool's finalizer. Any exception leaving this method
        closes the pool *before* it propagates, so a failed run never
        leaves a half-dead pool with stale messages in its pipes.
        """
        if iterations < 1:
            raise ProtocolError("iterations must be >= 1")
        s = self.session
        report = RunReport(
            iterations=iterations, num_workers=s.num_trainers,
            trained_targets=[], worker_targets=[[] for _ in s.trainers],
            shard_parts=self.store_extras.get("parts"))
        rows: list[list[float]] = []

        setup_start = time.perf_counter()
        try:
            if self._pool is None:
                self._open()
            # Begin the run: sync each worker to the parent's *current*
            # parameters and its trainer's stream position — a session
            # that already trained (under any backend, this one
            # included) resumes bit-identically instead of silently
            # continuing from stale weights. Only then start the
            # training clock: wall_time_s measures the synchronized
            # loop, not spawn or the broadcast.
            for idx, trainer in enumerate(s.trainers):
                self._send(idx, ("init", trainer.model.get_flat_params(),
                                 s.samplers[idx].stream_state))
            report.startup_time_s = time.perf_counter() - setup_start
            start = time.perf_counter()

            self._drive(iterations, self.window(), report, rows)
            report.wall_time_s = time.perf_counter() - start

            self._snapshot(report)
        except BaseException:
            self.close()
            raise
        report.close_timeline(s, rows)
        return report

    # ------------------------------------------------------------------
    # The one drive loop
    # ------------------------------------------------------------------
    def _drive(self, iterations: int, depth: int, report, rows) -> None:
        """Deal up to ``depth`` iterations ahead, then retire the oldest
        in-flight one: collect its results, run the sync tail,
        refill."""
        dealer = LookaheadDealer(self.work_source.iterate(iterations),
                                 depth)
        self._deal(dealer.refill(), report)
        while True:
            entry = dealer.retire()
            if entry is None:
                break
            report.lookahead_history.append(
                (dealer.in_flight + 1, dealer.depth))
            self._synchronize(*entry, report, rows)
            self._deal(dealer.refill(), report)

    def _deal(self, pairs, report) -> None:
        """Scatter newly dealt iterations: each trainer's target ids.
        Idle iterations are dealt too (``None``), so every worker sees
        — and answers — one item per iteration."""
        for it, planned in pairs:
            report.dealt_sizes.append(planned.batch_sizes)
            for idx, targets in enumerate(planned.assignments):
                if targets is not None:
                    report.trained_targets.append(targets)
                self._send(idx, ("train", it, targets))

    def _synchronize(self, it: int, planned, report, rows):
        """Retire one iteration: collect every worker's answer — a
        ``result`` (its gradient row read into the parent mirror) or an
        ``idle`` token — then the shared synchronize tail, which
        publishes the average row and broadcasts ``apply`` before the
        parent's own optimizer steps. The DRM engine is adjudicated
        there, in the parent, on every process plane.

        The slab invariant: every worker answers every dealt iteration,
        and only after it applied the previous one; the average row for
        ``it`` is written only after all answers for ``it`` — so no
        worker, however far it lags, can read a later iteration's
        average or have its row overwritten before it was reduced.
        (The slab is only ever indexed in place here, so no view of it
        keeps the segment alive in a failing run's traceback.) Idle
        replicas are zero-graded by the tail, at sync time rather than
        deal time, so a look-ahead deal can never clobber gradients of
        an earlier, not-yet-reduced iteration."""
        s = self.session
        answers: list[Reply | None] = []
        for idx, trainer in enumerate(s.trainers):
            busy = planned.assignments[idx] is not None
            msg = self._recv(idx)
            want = "result" if busy else "idle"
            if msg[:2] != (want, it):
                raise WorkerError(
                    f"worker {idx} answered {msg[0]!r} for iteration "
                    f"{msg[1]}, expected {want} for {it}")
            if not busy:
                answers.append(None)
                continue
            reply = msg[2]
            trainer.model.set_flat_grads(self._pool.store.grads[idx])
            report.worker_targets[idx].append(reply.echoed)
            if reply.shard_io is not None:
                report.shard_io.append(
                    {"iteration": it, "worker": idx, **reply.shard_io})
            answers.append(reply)

        def publish(avg) -> None:
            self._pool.store.grads[-1] = avg
            for idx in range(s.num_trainers):
                self._send(idx, ("apply", it))

        self.end_iteration(it, planned.batch_sizes, answers, report,
                           rows, publish=publish)

    def _snapshot(self, report) -> None:
        """The one post-run round trip per worker, *after*
        ``wall_time_s`` is stamped (shipping accounting never skews
        measured training time): ask everyone, then fold the kernel
        counters in order, audit every worker's parameters against
        the parent mirrors, bit for bit, and hand each worker's stream
        position to its trainer's session sampler. It ends the run on
        the worker side too; the pool stays up."""
        s = self.session
        for idx in range(s.num_trainers):
            self._send(idx, ("snapshot",))
        consistent = s.synchronizer.replicas_consistent()
        for idx, trainer in enumerate(s.trainers):
            tag, snap = self._recv(idx)
            if tag != "snapshot":
                raise ProtocolError(
                    f"worker {idx} sent {tag!r} instead of its "
                    "snapshot")
            merge_counts(report.kernel_stats, snap.kernel_stats)
            consistent = consistent and np.array_equal(
                snap.params, trainer.model.get_flat_params())
            s.samplers[idx].stream_state = snap.stream
        report.replicas_consistent = consistent

    # ------------------------------------------------------------------
    def _send(self, idx: int, msg) -> None:
        """Send one message to worker ``idx``; a dead worker surfaces
        as the backend's documented failure type, like ``_recv`` —
        with the worker's traceback when it sent one before dying."""
        conn = self._pool.conns[idx]
        try:
            conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            # A worker that failed sent its traceback before it exited:
            # surface that, not the broken pipe it left behind.
            try:
                while conn.poll(0):
                    reply = conn.recv()
                    if reply[0] == "error":
                        raise WorkerError(
                            f"worker {idx} failed:\n{reply[1]}") from exc
            except (EOFError, OSError):
                pass
            raise WorkerError(
                f"worker {idx} died before {msg[0]!r} could be "
                f"delivered: {exc!r}") from exc

    def _recv(self, idx: int):
        """Receive one message from worker ``idx`` under the watchdog.

        Failures surface as the typed infra errors (`StageTimeoutError`
        for a wedged worker, `WorkerError` for a dead or crashed one),
        so CI logs can tell them apart from conformance failures.
        """
        conn = self._pool.conns[idx]
        try:
            if not conn.poll(self.timeout_s):
                raise StageTimeoutError(
                    f"worker {idx} recv timeout after {self.timeout_s}s")
            msg = conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise WorkerError(
                f"worker {idx} died mid-iteration: {exc!r}") from exc
        if msg[0] == "error":
            raise WorkerError(
                f"worker {idx} failed:\n{msg[1]}")
        return msg


# ---------------------------------------------------------------------------
# The presets (registry names): declarations, not subclasses of each
# other — nothing below overrides a driver method other than __init__.
# ---------------------------------------------------------------------------

class ProcessPoolBackend(ProcessBackend):
    """``process`` — GIL-free trainer replicas, **bit-identical** to
    the virtual reference: the parent deals each trainer's target ids
    lock-step under any config, so DRM sees every iteration before the
    next one is sliced; each worker samples its batch from its
    trainer's stream, gathers zero-copy from the shared store, trains
    inline, and mirrors the synchronized update. Held to the strict
    tier, hybrid + DRM + int8 transfer included."""

    name = "process"
    lockstep = True


class ProcessSamplingBackend(ProcessBackend):
    """``process_sampling`` — ``process`` with the session's window:
    under two-stage prefetch the parent deals ``prefetch_depth``
    iterations ahead, so each worker samples and loads batch ``i + 1``
    while the parent collects and all-reduces batch ``i`` (and the next
    transfer overlaps the gradient pull).

    Look-ahead changes when a worker samples, never what it draws, so
    wherever DRM is off this plane is bit-identical to ``process``.
    Iterations stay a synchronized barrier either way; DRM observes
    iteration ``i`` before ``i + 1``'s quotas are read only without
    prefetch (lock-step dealing) — with it, adjustments lag the dealt
    window (``RunReport.dealt_sizes``), hence the statistical tier."""

    name = "process_sampling"
    conformance_tier = "statistical"


class ProcessPipelinedBackend(ProcessBackend):
    """``process_pipelined`` — ``process_sampling`` with its DRM step
    calibrated: target-id shards dealt the session's window ahead, each
    worker sampling and loading the next batches while the parent
    collects and all-reduces the current one, and an
    :class:`~repro.runtime.resctl.OnlineEstimator` (kept across runs)
    correcting the modelled stage times Algorithm 1 reads with the
    realized ones. Until the estimator warms its calibration is the
    identity, so a run whose estimator stays cold is bit-identical to
    ``process_sampling`` on the same session (pinned by a regression
    test); without a timing plane it never calibrates at all."""

    name = "process_pipelined"
    conformance_tier = "statistical"

    def __init__(self, session, timeout_s: float = 120.0,
                 mp_context: str | None = None) -> None:
        super().__init__(session, timeout_s=timeout_s,
                         mp_context=mp_context)
        self.estimator = OnlineEstimator()
