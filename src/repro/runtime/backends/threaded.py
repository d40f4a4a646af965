"""Live multi-threaded execution backend (paper §VI-B, Listing 1).

Runs the same :class:`~repro.runtime.core.TrainingSession` the
virtual-time backend resolves sequentially, but on real Python threads
with condition-variable handshakes structured exactly like the paper's
pthread implementation:

* a producer thread plays Mini-batch Sampler + Feature Loader, filling
  bounded :class:`~repro.runtime.prefetch.PrefetchBuffer` queues (the
  two-stage prefetch look-ahead). The producer also drives the *timing
  plane* when the session has one: it draws per-trainer batches from the
  shared :class:`~repro.runtime.core.BatchPlan`, records modelled stage
  times from the realized statistics, and applies the DRM adjustment —
  in exactly the order the virtual-time backend does, so the split/DRM
  trajectory (and therefore every batch) is bit-identical across
  backends;
* one thread per GNN Trainer trains its replica, then increments the
  shared ``DONE`` counter under the mutex and signals the condition
  (Listing 1's ``Trainer_threads`` block);
* the synchronizer (the ``run`` caller's thread) waits for
  ``DONE == n``, performs the all-reduce, broadcasts, and waits for every
  trainer's ``ACK`` before releasing the next iteration (Listing 1's
  ``Synchronizer_thread`` block).

Every handshake is recorded in a :class:`ProtocolLog`; tests validate the
ordering invariants and that training results match the virtual-time
backend loss-for-loss.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ...errors import ProtocolError
from ..prefetch import PrefetchBuffer
from ..protocol import Signal
from ..resctl import fold_worker_realized
from .base import ExecutionBackend
from .report import RunReport


class ThreadedBackend(ExecutionBackend):
    """Run hybrid synchronous-SGD training on real threads.

    Parameters
    ----------
    session:
        The shared runtime core. Platform sessions bring the hybrid
        CPU+accelerator split, DRM, transfer quantization and the
        modelled timing plane onto the threads; platform-less sessions
        run the functional protocol only.
    prefetch_depth:
        Mini-batches of look-ahead per trainer.
    timeout_s:
        Watchdog for every blocking wait — a protocol deadlock fails fast
        instead of hanging the suite.
    """

    name = "threaded"

    def __init__(self, session, prefetch_depth: int = 2,
                 timeout_s: float = 60.0) -> None:
        super().__init__(session)
        if prefetch_depth < 1:
            raise ProtocolError("prefetch depth must be >= 1")
        if timeout_s <= 0:
            raise ProtocolError("timeout_s must be positive")
        self.prefetch_depth = prefetch_depth
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    def run(self, iterations: int) -> RunReport:
        """Execute ``iterations`` synchronized iterations.

        Iterations follow the shared batch plan: each epoch is one
        permutation of the train set, consumed cursor-wise; when
        ``iterations`` exceeds an epoch the plan rolls into the next
        permutation (so long runs still visit every train vertex once
        per epoch).
        """
        if iterations < 1:
            raise ProtocolError("iterations must be >= 1")
        s = self.session
        report = RunReport(iterations=iterations)
        log = report.protocol_log
        n = s.num_trainers
        rows: list[list[float]] = []

        mutex = threading.Lock()
        cond = threading.Condition(mutex)
        state = {
            "done": 0,           # Listing 1's DONE counter
            "acks": 0,
            "sync_iter": -1,     # last iteration whose all-reduce finished
            "release_iter": 0,   # iteration trainers may work on
            "results": {},       # (iteration, trainer) -> (loss, acc, size)
            "error": None,
        }
        buffers = [PrefetchBuffer(self.prefetch_depth) for _ in range(n)]

        # ---- producer: Batch Plan + Sampler + Feature Loader ----
        # Also the timing plane's home: stage times are a pure function
        # of the realized batch statistics and the current split, and
        # DRM must see iteration i's times before iteration i+1's quotas
        # are read — the producer is the only thread that touches the
        # plan, so ordering matches the virtual-time backend exactly.
        def produce_iteration(it: int, planned) -> None:
            stats_cpu = None
            stats_accel: list = []
            edges_iter = 0.0
            per_trainer: list[tuple[str, dict]] = []
            # Hand each trainer's item over as soon as it is ready so
            # trainer 0 can start while trainers 1..n-1 still load.
            for idx, trainer in enumerate(s.trainers):
                targets = planned.assignments[idx]
                if targets is None:
                    if trainer.kind == "accel":
                        stats_accel.append(None)
                    buffers[idx].put((it, None, None, None),
                                     timeout=self.timeout_s)
                    continue
                t0 = time.perf_counter()
                mb = s.sampler.sample(targets)
                dt_sample = time.perf_counter() - t0
                st = mb.stats()
                edges_iter += st.total_edges
                if trainer.kind == "cpu":
                    stats_cpu = st
                else:
                    stats_accel.append(st)
                t0 = time.perf_counter()
                x0 = s.load_features(mb, trainer.kind)
                per_trainer.append((trainer.kind,
                                    {"sample": dt_sample,
                                     "load": time.perf_counter() - t0}))
                buffers[idx].put((it, mb, x0, s.labels_for(mb)),
                                 timeout=self.timeout_s)
            report.total_edges += edges_iter
            # Feed the realized sample/load wall clocks to the stage
            # monitor (observability only — never the timing step,
            # which stays bit-identical to the virtual reference).
            self.monitor.observe_times(fold_worker_realized(per_trainer))
            if s.has_timing:
                times, row, split = s.timing_step(stats_cpu,
                                                  stats_accel, it)
                rows.append(row)
                report.stage_history.append(times)
                report.split_history.append(split)

        def producer() -> None:
            try:
                for it, planned in s.work_source.iterate(iterations):
                    produce_iteration(it, planned)
                for b in buffers:
                    b.close()
            except BaseException as exc:  # propagate to the main thread
                with cond:
                    if state["error"] is None:
                        state["error"] = exc
                    cond.notify_all()
                for b in buffers:
                    b.close()

        # ---- trainer threads (Listing 1, Trainer_threads) ----
        def trainer_loop(idx: int) -> None:
            try:
                node = s.trainers[idx]
                opt = s.optimizers[idx]
                while True:
                    item = buffers[idx].get(timeout=self.timeout_s)
                    if item is None:
                        return
                    it, mb, x0, labels = item
                    with cond:
                        while state["release_iter"] < it and \
                                state["error"] is None:
                            if not cond.wait(self.timeout_s):
                                raise ProtocolError(
                                    f"trainer{idx} release wait timeout")
                        if state["error"] is not None:
                            return
                    if mb is None:
                        # Idle this iteration: participate in the
                        # all-reduce with zero gradients and weight zero.
                        node.model.zero_grad()
                        result = (None, None, 0)
                    else:
                        t0 = time.perf_counter()
                        rep = node.train_minibatch(mb, x0, labels,
                                                   s.degrees)
                        self.monitor.observe(
                            "train_cpu" if node.kind == "cpu"
                            else "train_accel",
                            time.perf_counter() - t0)
                        result = (rep.loss, rep.accuracy,
                                  rep.batch_targets)
                    with cond:
                        state["results"][(it, idx)] = result
                        state["done"] += 1
                        log.record(it, Signal.DONE, node.name)
                        cond.notify_all()
                        # Wait for the synchronizer's broadcast.
                        while state["sync_iter"] < it and \
                                state["error"] is None:
                            if not cond.wait(self.timeout_s):
                                raise ProtocolError(
                                    f"trainer{idx} sync wait timeout")
                        if state["error"] is not None:
                            return
                    opt.step()
                    with cond:
                        state["acks"] += 1
                        log.record(it, Signal.ACK, node.name)
                        cond.notify_all()
            except BaseException as exc:
                with cond:
                    if state["error"] is None:
                        state["error"] = exc
                    cond.notify_all()

        threads = [threading.Thread(target=self.scoped(producer),
                                    daemon=True,
                                    name="producer")]
        threads += [threading.Thread(target=self.scoped(trainer_loop),
                                     args=(i,),
                                     daemon=True, name=f"trainer{i}")
                    for i in range(n)]
        counters_before = self.counters.snapshot()
        start = time.perf_counter()
        for t in threads:
            t.start()

        # ---- synchronizer loop (Listing 1, Synchronizer_thread) ----
        try:
            for it in range(iterations):
                with cond:
                    while state["done"] < n and state["error"] is None:
                        if not cond.wait(self.timeout_s):
                            raise ProtocolError(
                                f"synchronizer wait timeout at {it}")
                    if state["error"] is not None:
                        raise state["error"]
                    sizes = [state["results"][(it, i)][2]
                             for i in range(n)]
                    t0 = time.perf_counter()
                    s.synchronizer.all_reduce(sizes, it)
                    self.monitor.observe("sync",
                                         time.perf_counter() - t0)
                    log.record(it, Signal.SYNC, "synchronizer")
                    state["done"] = 0
                    state["sync_iter"] = it
                    cond.notify_all()
                    while state["acks"] < n and state["error"] is None:
                        if not cond.wait(self.timeout_s):
                            raise ProtocolError(
                                f"ACK wait timeout at {it}")
                    if state["error"] is not None:
                        raise state["error"]
                    state["acks"] = 0
                    state["release_iter"] = it + 1
                    log.record(it, Signal.ITER_START, "runtime")
                    cond.notify_all()
                losses = [state["results"][(it, i)][0] for i in range(n)
                          if state["results"][(it, i)][0] is not None]
                accs = [state["results"][(it, i)][1] for i in range(n)
                        if state["results"][(it, i)][1] is not None]
                report.losses.append(float(np.mean(losses)))
                report.accuracies.append(float(np.mean(accs)))
        finally:
            for b in buffers:
                b.close()
            for t in threads:
                t.join(timeout=self.timeout_s)

        report.wall_time_s = time.perf_counter() - start
        report.kernel_stats = self.counters.delta(counters_before)
        report.replicas_consistent = \
            s.synchronizer.replicas_consistent()
        report.prefetch_high_water = max(b.high_water for b in buffers)
        report.close_timeline(s, rows)
        return report
