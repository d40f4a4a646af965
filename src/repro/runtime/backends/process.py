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
by every later one, released by ``close()``. What varies between
process planes is two small choices:

* the **work source** (``self.work_source``) — the numbered stream of
  :class:`~repro.runtime.core.PlannedIteration` the parent deals:
  ``session.work_source`` (quota-cursor :class:`BatchPlan`) or a
  partition-mapped :class:`~.sharded.ShardPlan`;
* the **deal policy** (``deal``) — what one dealt work item is:
  :class:`WireBatchDeal` samples in the parent's single RNG stream and
  ships the batch in wire form (what keeps a plane bit-identical to
  the virtual reference); :class:`TargetDeal` ships the target-id
  shard and the worker samples from its own independent stream.

Every worker runs one body, :class:`InlineBody`: it prepares a dealt
item when it arrives and trains it once the previous iteration's
update is applied, so dealing ahead overlaps the next batches' sample
and load with the parent's collect and all-reduce without a thread in
the worker. The body takes its per-item stages from the replica
(``replica_cls``), so a shard-aware gather is a replica, not a
different serve loop.

There is exactly one drive loop: a :class:`~.overlap.LookaheadDealer`
over the work source. Its window is adaptive when the preset installs a
:class:`~.overlap.DepthPolicy` as ``self.lookahead``; otherwise it is
fixed (:meth:`ProcessBackend.fixed_window`) — at the session's
``prefetch_depth`` under two-stage prefetch for a preset that declares
``deals_ahead``, else at 1 (lock-step). The parent always adjudicates
DRM and always runs the per-iteration all-reduce barrier — only
*dealing* ever runs ahead, so Algorithm-1 adjustments lag the dealt
window by design (``RunReport.dealt_sizes``).

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
from contextlib import nullcontext
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ...errors import ProtocolError, StageTimeoutError, WorkerError
from ...kernels import COUNTERS, BufferPool, merge_counts
from ...sampling.base import LayerBlock, MiniBatch
from ..resctl import NodeAllocator
from ..stage_pipeline import StagePipeline
from .base import ExecutionBackend
from .overlap import DepthPolicy, LookaheadDealer, resolve_depths
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
    for the parity audit, the kernel-counter delta since the run began
    (a *delta*: under fork the worker's counters inherit whatever the
    parent accumulated before spawning, and a reused worker carries its
    earlier runs'). Stage seconds are not in it: every reply already
    carried its batch's."""

    params: np.ndarray
    kernel_stats: dict[str, int]


# ---------------------------------------------------------------------------
# Seam: the deal policy (parent side; the worker half of the wire form
# is WorkerReplica.sample)
# ---------------------------------------------------------------------------

class WireBatchDeal:
    """Sample in the parent, ship the batch.

    Every stochastic draw — epoch permutations *and* neighbor sampling
    — stays in the parent's single RNG stream, in plan order, which is
    what makes a plane dealing this way bit-identical to the virtual
    reference. The wire form is compact index arrays; the worker
    re-materializes (and re-validates) the batch.
    """

    worker_samples: ClassVar[bool] = False

    @staticmethod
    def pack(session, targets: np.ndarray):
        """``(payload, stats)`` for one batch."""
        mb = session.sampler.sample(targets)
        wire = (mb.node_ids,
                [(b.src_local, b.dst_local, b.num_src, b.num_dst)
                 for b in mb.blocks],
                mb.feature_dim)
        return wire, mb.stats()

    @staticmethod
    def unpack(wire) -> MiniBatch:
        node_ids, blocks_raw, feature_dim = wire
        blocks = tuple(LayerBlock(src_local=src, dst_local=dst,
                                  num_src=int(ns), num_dst=int(nd))
                       for src, dst, ns, nd in blocks_raw)
        return MiniBatch(node_ids=tuple(node_ids), blocks=blocks,
                         feature_dim=int(feature_dim))


class TargetDeal:
    """Deal target-id shards; the worker samples.

    Everything stochastic about *planning* stays in the parent,
    everything stochastic about *sampling* moves to the workers' own
    ``SeedSequence``-derived streams
    (:func:`repro.sampling.worker_stream_seed`) — bit-parity with the
    virtual reference is impossible by design, so presets dealing this
    way declare the ``statistical`` tier. The store's manifest carries
    the :class:`~repro.runtime.shm.SharedSamplerSpec` the workers
    rebuild the sampler from.
    """

    worker_samples: ClassVar[bool] = True

    @staticmethod
    def pack(session, targets: np.ndarray):
        return targets, None


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
        from ..trainer import TrainerNode

        super().__init__(None, store.features, store.labels,
                         spec.transfer_precision)
        self.store = store
        self.spec = spec
        # Built here too, so an unbuildable sampler family fails the
        # ready handshake with its traceback.
        self.sampler = self.fresh_sampler()
        #: The gradient slab: row ``spec.index`` is this worker's flat
        #: gradient, the last row the parent's averaged update.
        self.grads = store.grads
        self.degrees = store.degrees     # private copy, outlives views
        self.model = build_model(spec.model_name, spec.dims, spec.seed)
        self.node = TrainerNode(spec.name, spec.kind, self.model, None,
                                spec.dims, spec.model_name)
        self.opt = SGD(self.model, lr=spec.learning_rate)

    def fresh_sampler(self):
        """A private, independently-seeded sampler over the shared CSR
        iff the parent deals target ids (the manifest says so)."""
        from ...sampling import build_worker_sampler
        if self.store.manifest.sampler is None:
            return None
        return build_worker_sampler(self.store, self.spec.index)

    def begin_run(self, params: np.ndarray) -> None:
        """Start a run on this (possibly reused) process exactly as a
        freshly spawned one would: the parent's *current* parameters,
        the sampler stream back at its seed — reuse is numerically
        invisible. The validated CSR view is the store's and survives;
        only the sampler around it is rebuilt."""
        self.model.set_flat_params(params)
        self.sampler = self.fresh_sampler()

    def sample(self, work) -> MiniBatch:
        """This worker's sample stage: draw from the private stream,
        or re-materialize the batch the parent sampled."""
        if self.sampler is None:
            return WireBatchDeal.unpack(work)
        return super().sample(work)

    def train(self, mb: MiniBatch, x0, labels,
              stage_s: dict[str, float]) -> Reply:
        """One forward/backward on a prepared batch: the gradient
        goes to this worker's slab row, the rest into the reply."""
        t0 = time.perf_counter()
        rep = self.node.train_minibatch(mb, x0, labels, self.degrees)
        stage_s["train"] = time.perf_counter() - t0
        self.grads[self.spec.index] = self.model.get_flat_grads()
        reply = Reply(loss=rep.loss, accuracy=rep.accuracy,
                      stage_s=stage_s)
        if self.sampler is None:
            # Re-materializing a parent-sampled batch is not sampling.
            stage_s.pop("sample", None)
        else:
            reply.stats = mb.stats()
            reply.echoed = np.asarray(mb.targets)
        return reply

    def apply(self) -> None:
        """Mirror the parent's synchronized SGD step from the slab's
        average row — the same in-place update it applies to its mirror
        replicas, keeping all copies bit-equal without shipping
        parameters in steady state."""
        self.model.set_flat_grads(self.grads[-1])
        self.opt.step()

    def snapshot(self, counters_baseline) -> WorkerSnapshot:
        return WorkerSnapshot(
            params=self.model.get_flat_params(),
            kernel_stats=COUNTERS.delta(counters_baseline))

    def release_views(self) -> None:
        """Drop shm-backed views before unmapping, else ``close()``
        raises BufferError on the exported buffers (the sampler's CSR
        graph views the segment too)."""
        self.features = self.labels = self.sampler = self.grads = None


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

    A load that will train at once (every load under lock-step dealing)
    goes through the run's one pooled buffer set, allocation-free after
    the first few iterations; a load that queues behind an unapplied
    iteration gathers into a fresh array, since the next pooled gather
    would overwrite it before it trains (``docs/kernels.md``).
    """

    def __init__(self, conn, replica: WorkerReplica) -> None:
        self.conn = conn
        self.replica = replica
        self.pool = BufferPool()
        #: Prepared items in iteration order: ``(it, None)`` for an
        #: idle iteration, else ``(it, (mb, x0, stage_s))``. Non-empty
        #: only while ``awaiting`` is set.
        self.queue: deque = deque()
        #: The answered iteration whose ``apply`` has not arrived.
        self.awaiting: int | None = None

    def train(self, it: int, work) -> None:
        prepared = None
        if work is not None:
            r = self.replica
            stage_s: dict[str, float] = {}
            t0 = time.perf_counter()
            mb = r.sample(work)
            stage_s["sample"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            x0 = r.load(mb, r.spec.kind,
                        pool=self.pool if self.awaiting is None else None)
            stage_s["load"] = time.perf_counter() - t0
            prepared = (mb, x0, stage_s)
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
            mb, x0, stage_s = prepared
            self.conn.send(("result", it,
                            r.train(mb, x0, r.labels_for(mb), stage_s)))
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
        if tag == "train":
            body.train(msg[1], msg[2])
        elif tag == "apply":
            body.apply(msg[1])
        elif tag == "init":
            # Nothing is in flight between runs (the parent retired and
            # applied every iteration before its ``snapshot``), so the
            # replica is safe to overwrite.
            replica.begin_run(msg[1])
            counters_baseline = COUNTERS.snapshot()
            body = InlineBody(conn, replica)
        elif tag == "snapshot":
            conn.send(("snapshot", replica.snapshot(counters_baseline)))
        elif tag == "stop":
            return
        else:
            raise ProtocolError(f"unknown message tag {tag!r}")


def worker_main(conn, manifest, spec: WorkerSpec) -> None:
    """Worker-process entry point (module-level: picklable under
    ``spawn``): attach the store, build the replica, serve, and tear
    down (close-never-unlink) no matter how the loop ends."""
    store = None
    replica = None
    try:
        from ..shm import SharedFeatureStore

        store = SharedFeatureStore.attach(manifest)
        replica = spec.replica_cls(store, spec)
        serve(conn, replica)
    except EOFError:
        pass                              # parent went away: just exit
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        if store is not None:
            if replica is not None:
                replica.release_views()
            try:
                store.close()             # never unlink: parent owns it
            except Exception:
                pass
        conn.close()


# ---------------------------------------------------------------------------
# Parent side: the pool and the driver
# ---------------------------------------------------------------------------

def _shutdown(conns, procs, store) -> None:
    """Stop workers and destroy the shared segment. Never raises."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except Exception:
            pass
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - wedged worker
            proc.terminate()
            proc.join(timeout=5.0)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    try:
        store.close()
    except BufferError:
        # A slab view pinned by the traceback of the very failure that
        # got us here (an interrupt mid-read): the mapping dies with
        # it, the name goes now.
        pass
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

    #: Seam: what one dealt work item is.
    deal: ClassVar[type] = WireBatchDeal
    #: The worker's per-item stages + model (its ``gather`` may be
    #: shard-aware).
    replica_cls: ClassVar[type] = WorkerReplica
    #: Without a depth policy, deal ``prefetch_depth`` iterations ahead
    #: when the session prefetches (:meth:`fixed_window`)? ``False``
    #: keeps the preset lock-step under any config.
    deals_ahead: ClassVar[bool] = False

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
        #: partition-mapped preset passes ``shard_map``/``shard_spec``).
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
        manifest tells workers whether to sample (sampler spec); the
        gradient slab is one row per worker plus the average row, in
        the model's parameter dtype."""
        from ..shm import SharedFeatureStore
        s = self.session
        flat = s.trainers[0].model.get_flat_params()
        return SharedFeatureStore.create(
            s.dataset,
            sampler_spec=s.shared_sampler_spec()
            if self.deal.worker_samples else None,
            grad_slab=np.zeros_like(
                flat, shape=(s.num_trainers + 1, flat.size)),
            **self.store_extras)

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
        shard_map = self.store_extras.get("shard_map")
        report = RunReport(
            iterations=iterations, num_workers=s.num_trainers,
            shard_parts=None if shard_map is None else shard_map.parts)
        if self.deal.worker_samples:
            report.trained_targets = []
            report.worker_targets = [[] for _ in s.trainers]
        rows: list[list[float]] = []

        setup_start = time.perf_counter()
        try:
            if self._pool is None:
                self._open()
            # Begin the run: sync each worker to the parent's *current*
            # parameters — a session that already trained (under any
            # backend, this one included) resumes bit-identically
            # instead of silently continuing from stale weights. Only
            # then start the training clock: wall_time_s measures the
            # synchronized loop, not spawn or the broadcast.
            for idx, trainer in enumerate(s.trainers):
                self._send(idx, ("init", trainer.model.get_flat_params()))
            report.startup_time_s = time.perf_counter() - setup_start
            start = time.perf_counter()

            window = nullcontext(self.fixed_window()) \
                if self.lookahead is None \
                else self.lookahead.run(self.name, report)
            with window as depth:
                self._drive(iterations, depth, report, rows)
            report.wall_time_s = time.perf_counter() - start

            self._snapshot(report)
        except BaseException:
            self.close()
            raise
        report.close_timeline(s, rows)
        return report

    def fixed_window(self) -> int:
        """The dealt window when no depth policy is installed: if the
        preset ``deals_ahead``, the first window
        :func:`~.overlap.resolve_depths` gives a look-ahead preset
        (``prefetch_depth`` under two-stage prefetch, else 1); otherwise
        1 (lock-step)."""
        if not self.deals_ahead:
            return 1
        return resolve_depths(self.session, None, None)[0]

    # ------------------------------------------------------------------
    # The one drive loop
    # ------------------------------------------------------------------
    def _drive(self, iterations: int, depth: int, report, rows) -> None:
        """Deal up to ``depth`` iterations ahead, then retire the oldest
        in-flight one: collect its results, run the sync tail, let the
        depth policy (if any) resize the window, refill."""
        dealer = LookaheadDealer(self.work_source.iterate(iterations),
                                 depth)
        dealt_stats: dict[int, dict] = {}
        self._deal(dealer.refill(), report, dealt_stats)
        while True:
            entry = dealer.retire()
            if entry is None:
                break
            report.lookahead_history.append(
                (dealer.in_flight + 1, dealer.depth))
            it, planned = entry
            times = self._synchronize(it, planned, dealt_stats.pop(it),
                                      report, rows)
            if self.lookahead is not None and \
                    self.lookahead.adapt(times, it, report):
                dealer.set_depth(self.lookahead.depth)
            self._deal(dealer.refill(), report, dealt_stats)

    def _deal(self, pairs, report, dealt_stats) -> None:
        """Scatter newly dealt iterations through the deal policy."""
        s = self.session
        for it, planned in pairs:
            report.dealt_sizes.append(planned.batch_sizes)
            stats = dealt_stats[it] = {}
            for idx, targets in enumerate(planned.assignments):
                payload = None
                if targets is not None:
                    payload, st = self.deal.pack(s, targets)
                    if st is not None:
                        stats[idx] = st
                    if report.trained_targets is not None:
                        report.trained_targets.append(targets)
                # Idle iterations are dealt too (payload None), so every
                # worker sees — and answers — one item per iteration.
                self._send(idx, ("train", it, payload))

    def _synchronize(self, it: int, planned, stats_by_idx, report, rows):
        """Retire one iteration: collect every worker's answer — a
        ``result`` (its gradient row read into the parent mirror) or an
        ``idle`` token — then the shared synchronize tail, which
        publishes the average row and broadcasts ``apply`` before the
        parent's own optimizer steps. The DRM engine is adjudicated
        there, in the parent, on every process plane. Returns the
        iteration's :class:`StageTimes` (``None`` without a timing
        plane).

        The slab invariant: every worker answers every dealt iteration,
        and only after it applied the previous one; the average row for
        ``it`` is written only after all answers for ``it`` — so no
        worker, however far it lags, can read a later iteration's
        average or have its row overwritten before it was reduced.
        (The slab is only ever indexed in place here: a view held in a
        local would pin the mapping through a failing run's traceback
        while ``close()`` unmaps it.) Idle replicas are zero-graded by
        the tail, at sync time rather than deal time, so a look-ahead
        deal can never clobber gradients of an earlier, not-yet-reduced
        iteration."""
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
            if reply.stats is None:
                reply.stats = stats_by_idx[idx]
            if reply.echoed is not None:
                report.worker_targets[idx].append(reply.echoed)
            if reply.shard_io is not None:
                report.shard_io.append(
                    {"iteration": it, "worker": idx, **reply.shard_io})
            answers.append(reply)

        def publish(avg) -> None:
            self._pool.store.grads[-1] = avg
            for idx in range(s.num_trainers):
                self._send(idx, ("apply", it))

        return self.end_iteration(it, planned.batch_sizes, answers,
                                  report, rows, publish=publish)

    def _snapshot(self, report) -> None:
        """The one post-run round trip per worker, *after*
        ``wall_time_s`` is stamped (shipping accounting never skews
        measured training time): ask everyone, then fold the kernel
        counters in order and audit every worker's parameters against
        the parent mirrors, bit for bit. It ends the run on the worker
        side too; the pool stays up."""
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
        report.replicas_consistent = consistent

    # ------------------------------------------------------------------
    def _send(self, idx: int, msg) -> None:
        """Send one message to worker ``idx``; a dead worker surfaces
        as the backend's documented failure type, like ``_recv``."""
        try:
            self._pool.conns[idx].send(msg)
        except (BrokenPipeError, OSError) as exc:
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
    the virtual reference: the parent samples every batch in plan order
    and ships it in wire form; workers gather zero-copy from the shared
    store, train inline, and mirror the synchronized update. Held to
    the strict tier, hybrid + DRM + int8 transfer included."""

    name = "process"


class ProcessSamplingBackend(ProcessBackend):
    """``process_sampling`` — the sample stage parallelized too: the
    parent deals target-id shards, each worker samples from its own
    RNG stream and runs ``sample → gather → transfer → train`` inline.

    Under two-stage prefetch the parent deals ``prefetch_depth``
    iterations ahead, so each worker samples and loads batch ``i + 1``
    while the parent collects and all-reduces batch ``i`` (and the next
    transfer overlaps the gradient pull). Iterations stay a
    synchronized barrier either way; DRM observes iteration ``i``
    before ``i + 1``'s quotas are read only without prefetch (lock-step
    dealing) — with it, adjustments lag the dealt window
    (``RunReport.dealt_sizes``)."""

    name = "process_sampling"
    conformance_tier = "statistical"
    deal = TargetDeal
    deals_ahead = True


class ProcessPipelinedBackend(ProcessBackend):
    """``process_pipelined`` — process × pipeline fused: target-id
    shards dealt *ahead* through an adaptively-sized window, so each
    worker samples and loads the next batches while the parent
    collects and all-reduces the current one. Look-ahead changes when
    an item is dealt, never what is trained: without DRM this preset is
    bit-identical to ``process_sampling`` at any depth, and with DRM
    at ``max_depth=1`` and a cold estimator it is bit-identical to a
    lock-step (``prefetch=False``) ``process_sampling`` run (both
    pinned by a regression test). What sets it apart from
    ``process_sampling``'s fixed ``prefetch_depth`` window is the
    adaptive depth, the node allocator's grant and, on timing
    sessions, the estimator that calibrates its DRM step; a deeper
    window deals further ahead of Algorithm 1's adjustments
    (``RunReport.dealt_sizes``).

    Parameters (beyond :class:`ProcessBackend`'s)
    ---------------------------------------------
    initial_depth / max_depth / allocator:
        The :class:`~.overlap.DepthPolicy` knobs, exactly as on
        :class:`~.pipelined.PipelinedBackend`.
    """

    name = "process_pipelined"
    conformance_tier = "statistical"
    deal = TargetDeal

    def __init__(self, session, timeout_s: float = 120.0,
                 mp_context: str | None = None,
                 initial_depth: int | None = None,
                 max_depth: int | None = None,
                 allocator: NodeAllocator | None = None) -> None:
        super().__init__(session, timeout_s=timeout_s,
                         mp_context=mp_context)
        self.lookahead = DepthPolicy(session, initial_depth, max_depth,
                                     allocator)
