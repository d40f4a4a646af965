"""The three training workloads: end-to-end pass and traced pass.

Every call into the library goes through its public surface
(``load_dataset``, ``TrainingSession`` and its stage hooks,
``build_backend(...).run_epoch()``, documented report fields read with
a fallback, ``SharedFeatureStore.create/attach``); no private
attribute, no ``repro.bench`` import.
"""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass

import numpy as np

from repro import SystemConfig, TrainingConfig
from repro.graph.datasets import load_dataset, tiny_dataset
from repro.hw.topology import hyscale_cpu_gpu_platform
from repro.runtime import (
    SharedFeatureStore,
    TrainingSession,
    available_backends,
    build_backend,
)

from .harness import (
    HostProbe,
    Ledger,
    Tracer,
    Unprobed,
    coeff_var,
    mean,
    median,
    percentile,
    quiesce,
)

#: Epochs a fresh backend runs before anything is timed (part of
#: ``setup_s``; their walls are discarded).
WARMUP_EPOCHS = 3
#: In-process repetitions ``setup_s`` is the median of.
SETUP_REPS = 5
#: Planned iterations the sequential replay walks.
REPLAY_ITERATIONS = 24
#: Timed epochs per backend in the sweep (after one discarded epoch).
SWEEP_EPOCHS = 3
#: The seven registered planes the sweep reports, by registry name.
SWEEP_BACKENDS = ("virtual", "threaded", "pipelined", "process",
                  "process_sampling", "process_pipelined", "sharded")


@dataclass(frozen=True)
class TrainFixture:
    """One training workload's inputs (``smoke`` swaps in a tiny
    graph; everything else is the same code path)."""

    dataset: str
    scale: float
    backend: str
    train: dict
    system: dict
    #: Accelerators of the modelled platform, or ``None`` for a
    #: platform-less (functional-only) session.
    platform_gpus: int | None = None
    num_trainers: int = 2
    profile_probes: int = 3
    #: Does the backend load features through the fused
    #: ``load_features`` chokepoint (sequential planes, workers) or
    #: through separate gather → transfer stages (pipelined)?
    fused_load: bool = True
    #: Does an op create a shared-memory store (process planes)?
    uses_shm: bool = False
    #: Run the all-backends sweep on this fixture?
    sweep: bool = False


#: What ``--smoke`` overrides, sized for the 400-vertex graph.
SMOKE_TRAIN = dict(minibatch_size=32, fanouts=(4, 3), hidden_dim=16,
                   learning_rate=0.05)

FIXTURES: dict[str, TrainFixture] = {
    "train-hybrid": TrainFixture(
        dataset="ogbn-products", scale=1 / 32, backend="pipelined",
        train=dict(model="sage", minibatch_size=512, fanouts=(10, 5),
                   hidden_dim=128),
        system=dict(), platform_gpus=2, fused_load=False),
    "train-procs": TrainFixture(
        dataset="ogbn-products", scale=1 / 16,
        backend="process_sampling",
        train=dict(model="gcn", minibatch_size=256, fanouts=(5, 5),
                   hidden_dim=64),
        system=dict(hybrid=True, drm=False), uses_shm=True,
        sweep=True),
    "train-wide": TrainFixture(
        dataset="mag240m", scale=1 / 2048, backend="threaded",
        train=dict(model="gcn", minibatch_size=96, fanouts=(15, 10),
                   hidden_dim=32),
        system=dict(hybrid=False, drm=False,
                    transfer_precision="int8")),
}


def make_dataset(fx: TrainFixture, seed: int, smoke: bool):
    if smoke:
        return tiny_dataset(num_vertices=400, feature_dim=12,
                            num_classes=4, avg_degree=8.0, seed=seed)
    return load_dataset(fx.dataset, fx.scale, seed=seed)


def make_session(fx: TrainFixture, dataset, seed: int,
                 smoke: bool) -> TrainingSession:
    train = dict(fx.train, seed=seed)
    if smoke:
        train.update(SMOKE_TRAIN)
    platform = (hyscale_cpu_gpu_platform(fx.platform_gpus)
                if fx.platform_gpus else None)
    return TrainingSession(dataset, TrainingConfig(**train),
                           SystemConfig(**fx.system), platform,
                           profile_probes=fx.profile_probes,
                           num_trainers=fx.num_trainers)


# ---------------------------------------------------------------------------
# One op = one epoch, checked
# ---------------------------------------------------------------------------

def _count(arrays) -> int:
    return int(sum(np.asarray(a).size for a in arrays))


def epoch_problem(report, session: TrainingSession) -> str | None:
    """Why this epoch op failed, or ``None``. Optional report fields
    are checked only where the plane's report has them."""
    expected = session.iterations_per_epoch()
    if getattr(report, "iterations", None) != expected:
        return (f"iterations {getattr(report, 'iterations', None)} "
                f"!= planned {expected}")
    losses = getattr(report, "losses", None)
    if not losses or len(losses) != expected:
        return f"{len(losses or [])} losses for {expected} iterations"
    if not all(math.isfinite(x) for x in losses):
        return "non-finite loss"
    if getattr(report, "replicas_consistent", True) is False:
        return "replicas diverged"
    planned = int(session.dataset.train_ids.size)
    trained = getattr(report, "trained_targets", None)
    if trained is not None and _count(trained) != planned:
        return f"trained {_count(trained)} targets, planned {planned}"
    by_worker = getattr(report, "worker_targets", None)
    if by_worker is not None:
        echoed = sum(_count(w) for w in by_worker)
        if echoed != planned:
            return f"workers echoed {echoed} targets, planned {planned}"
    return None


def run_op(backend, session, ledger: Ledger):
    """One checked epoch: ``(wall_s, report)``; the report is ``None``
    when the op failed (an exception inside an op is caught and
    counted, and the caller carries on if the backend can)."""
    start = time.perf_counter()
    try:
        report = backend.run_epoch()
        problem = epoch_problem(report, session)
    except Exception as exc:          # boundary: count, keep running
        report, problem = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    ok = ledger.op(problem)
    return wall, (report if ok else None)


def timed_ops(backend, session, ledger: Ledger, seconds: float,
              min_ops: int, probe=Unprobed(),
              keep=lambda report: report):
    """Epoch ops for ``seconds`` (at least ``min_ops``), the host
    probe read between them. Returns, for the ops that passed:
    their walls, the host slowdown around each, and ``keep(report)`` of each (the long end-to-end
    phase keeps a digest, not every report, so the bookkeeping does
    not grow the RSS it measures). Gives up after ten failures so a
    broken backend cannot spin until the deadline."""
    walls, slowdowns, kept = [], [], []
    failed_before = ledger.failed
    quiesce()
    deadline = time.perf_counter() + seconds
    probe.mark()
    while (time.perf_counter() < deadline or len(walls) < min_ops) \
            and ledger.failed - failed_before < 10:
        wall, report = run_op(backend, session, ledger)
        slowdown = probe.lap()
        if report is not None:
            walls.append(wall)
            slowdowns.append(slowdown)
            kept.append(keep(report))
    return walls, slowdowns, kept


def loss_drop(epoch_losses: list[float]) -> float:
    """Mean loss of the first ten epochs minus that of the last ten
    (fewer when the run was shorter); training works when >= 0."""
    k = min(10, len(epoch_losses) // 2)
    if k == 0:
        return 0.0
    return mean(epoch_losses[:k]) - mean(epoch_losses[-k:])


# ---------------------------------------------------------------------------
# End-to-end pass (tracing off)
# ---------------------------------------------------------------------------

def fresh_backend(fx: TrainFixture, dataset, seed: int, smoke: bool,
                  ledger: Ledger):
    """What ``setup_s`` times: session + backend + warm-up epochs
    (checked like any op, but not counted as ops — warm-up is
    discarded). Returns ``(seconds, session, backend, epoch losses)``.
    """
    warm = Ledger()
    quiesce()
    start = time.perf_counter()
    session = make_session(fx, dataset, seed, smoke)
    backend = build_backend(fx.backend, session)
    losses = []
    for _ in range(WARMUP_EPOCHS):
        _, report = run_op(backend, session, warm)
        if report is not None:
            losses.append(mean(report.losses))
    took = time.perf_counter() - start
    ledger.check(warm.failed == 0,
                 f"warm-up epochs failed: {warm.problems}")
    return took, session, backend, losses


def run_end_to_end(name: str, seed: int, seconds: float, smoke: bool,
                   ledger: Ledger, raw: dict) -> dict[str, float]:
    """The three time metrics, each wall divided by the host slowdown
    read around it (:class:`~.harness.HostProbe`); ``raw`` receives
    the same medians undivided, for the record."""
    fx = FIXTURES[name]
    dataset = make_dataset(fx, seed, smoke)
    probe = HostProbe()
    setups, setup_slow = [], []
    session = backend = None
    for _ in range(2 if smoke else SETUP_REPS):
        session = backend = None      # the previous one is garbage now
        took, session, backend, losses = fresh_backend(
            fx, dataset, seed, smoke, ledger)
        setups.append(took)
        setup_slow.append(probe.lap())

    walls, slowdowns, epoch_losses = timed_ops(
        backend, session, ledger, 0.0 if smoke else seconds,
        3 if smoke else 10, probe,
        keep=lambda report: mean(report.losses))
    losses += epoch_losses
    ledger.check(loss_drop(losses) >= 0.0,
                 f"loss rose by {-loss_drop(losses):.4f} over the run")
    targets = int(dataset.train_ids.size)
    raw.update(setup_s=median(setups), op_p50_ms=median(walls) * 1e3,
               targets_per_s=targets / median(walls) if walls else 0.0,
               host_slowdown=median(slowdowns))
    op_s = median(w / f for w, f in zip(walls, slowdowns))
    return {
        "setup_s": median(t / f for t, f in zip(setups, setup_slow)),
        "op_p50_ms": op_s * 1e3,
        "targets_per_s": targets / op_s if op_s else 0.0,
    }


# ---------------------------------------------------------------------------
# Traced pass: (a) sequential replay, (b) backend envelope, shm, sweep
# ---------------------------------------------------------------------------

def replay_iteration(session: TrainingSession, it: int, planned,
                     tracer: Tracer, ledger: Ledger,
                     record: dict) -> None:
    """One planned iteration through the stage hooks on one thread,
    one span per call (iteration → trainer → stage).

    Both load paths run on every batch — separate ``gather`` →
    ``transfer`` stages and the fused ``load_features`` — so each has
    its own span; the trainer consumes the separate-stage result and
    the two are compared bit for bit (an op check, made after the
    iteration span closes so it is not billed to any layer).
    """
    batches = []
    start = time.perf_counter()
    with tracer.span("iteration", it):
        for trainer, targets in zip(session.trainers,
                                    planned.assignments):
            if targets is None:
                trainer.model.zero_grad()
                continue
            with tracer.span("trainer", it):
                with tracer.span("sampling.sample", it):
                    mb = session.sample_stage(targets)
                with tracer.span("kernels.gather", it):
                    rows = session.gather_stage(mb)
                with tracer.span("kernels.transfer", it):
                    x0 = session.transfer_stage(rows, trainer.kind)
                with tracer.span("kernels.load_fused", it):
                    fused = session.load_features(mb, trainer.kind)
                labels = session.labels_for(mb)
                with tracer.span("nn.train", it):
                    rep = trainer.train_minibatch(
                        mb, x0, labels, session.degrees)
            batches.append((mb, x0, fused, rep.loss))
        with tracer.span("runtime.synchronizer.reduce_step", it):
            avg = session.reduce_and_step(
                list(planned.batch_sizes), it)
    record["walls"].append(time.perf_counter() - start)
    record["grad_bytes"] = int(avg.nbytes)
    problem = None
    for mb, x0, fused, loss in batches:
        stats = mb.stats()
        record["edges"].append(stats.total_edges)
        record["inputs"].append(stats.num_input_nodes)
        if not np.array_equal(x0, fused):
            problem = "fused load differs from gather+transfer"
        elif not math.isfinite(loss):
            problem = "non-finite loss in replay"
    ledger.op(problem)


def replay(traced: TrainingSession, silent: TrainingSession,
           iterations: int, tracer: Tracer,
           ledger: Ledger) -> tuple[dict, dict]:
    """Walk two identically seeded sessions through their own plans
    in lock-step — the same batches, spans on in one and off in the
    other, taking turns to go first — so that iteration ``i``'s pair
    of walls differs by the tracing cost and little else."""
    on, off = ({"walls": [], "edges": [], "inputs": [],
                "grad_bytes": 0} for _ in range(2))
    no_spans = Tracer(enabled=False)
    plans = zip(traced.work_source.iterate(iterations),
                silent.work_source.iterate(iterations))
    for (it, plan_on), (_, plan_off) in plans:
        turns = [(traced, plan_on, tracer, on),
                 (silent, plan_off, no_spans, off)]
        for session, planned, recorder, record in \
                (turns if it % 2 == 0 else reversed(turns)):
            replay_iteration(session, it, planned, recorder, ledger,
                             record)
    return on, off


def _replay_metrics(fx: TrainFixture, tracer: Tracer, on: dict,
                    off: dict) -> dict[str, float]:
    ms = lambda span: median(tracer.durations(span)) * 1e3  # noqa: E731
    own = tracer.self_time_by_name()
    total = sum(tracer.durations("iteration"))
    layers = {k: v for k, v in own.items()
              if k not in ("iteration", "trainer")}
    # The op pays one load path, the replay ran both: leave out the
    # one this workload's backend does not take.
    unused = (("kernels.gather", "kernels.transfer") if fx.fused_load
              else ("kernels.load_fused",))
    paid = sum(v for k, v in layers.items() if k not in unused)
    paired = [(a - b) / b for a, b in zip(on["walls"], off["walls"])
              if b > 0]
    return {
        "sampling.sample_ms": ms("sampling.sample"),
        "sampling.edges_per_batch": mean(on["edges"]),
        "sampling.input_vertices_per_batch": mean(on["inputs"]),
        "kernels.gather_ms": ms("kernels.gather"),
        "kernels.transfer_ms": ms("kernels.transfer"),
        "kernels.load_fused_ms": ms("kernels.load_fused"),
        "nn.train_ms": ms("nn.train"),
        "runtime.synchronizer.reduce_step_ms":
            ms("runtime.synchronizer.reduce_step"),
        "runtime.synchronizer.grad_bytes": on["grad_bytes"],
        "runtime.backends.replay_iter_ms":
            paid / max(1, len(on["walls"])) * 1e3,
        "trace.closure_pct":
            100.0 * sum(layers.values()) / total if total else 0.0,
        # Same seed, same plan, same batches with spans on and off:
        # the paired per-iteration difference is the tracing cost.
        "trace.overhead_pct": 100.0 * median(paired),
    }


def _stage_ms(stage_seconds: dict, prefix: str) -> float:
    count = sum(c for k, (c, _) in stage_seconds.items()
                if k.startswith(prefix))
    total = sum(t for k, (_, t) in stage_seconds.items()
                if k.startswith(prefix))
    return total / count * 1e3 if count else 0.0


def _envelope_metrics(walls: list[float], reports: list,
                      session: TrainingSession) -> dict[str, float]:
    """Op wall against the report's public fields. A field a plane's
    report lacks reads as zero (the layer does not exist there)."""
    ops = max(1, len(reports))
    field_ms = lambda name: median(            # noqa: E731
        getattr(r, name, 0.0) for r in reports) * 1e3
    op_ms = median(walls) * 1e3
    startup_ms = field_ms("startup_time_s")
    run_ms = field_ms("wall_time_s")
    kstats: dict[str, int] = {}
    stage_seconds: dict[str, tuple[int, float]] = {}
    moves = 0
    for r in reports:
        for key, value in getattr(r, "kernel_stats", {}).items():
            kstats[key] = kstats.get(key, 0) + value
        for key, (c, t) in getattr(r, "stage_seconds", {}).items():
            c0, t0 = stage_seconds.get(key, (0, 0.0))
            stage_seconds[key] = (c0 + c, t0 + t)
        splits = getattr(r, "split_history", [])
        moves += sum(a != b for a, b in zip(splits, splits[1:]))
    last = reports[-1] if reports else None
    splits = getattr(last, "split_history", [])
    depths = [d for r in reports
              for _, d in getattr(r, "depth_history", [])]
    train_stage = getattr(last, "stage_stats", {}).get("train")
    pool_hits = kstats.get("pool_hits", 0)
    pool_total = pool_hits + kstats.get("pool_misses", 0)
    iterations = session.iterations_per_epoch()
    return {
        "runtime.backends.startup_ms": startup_ms,
        "runtime.backends.run_ms": run_ms,
        "runtime.backends.teardown_ms":
            max(0.0, op_ms - startup_ms - run_ms),
        "runtime.backends.iter_ms": op_ms / iterations,
        "runtime.backends.worker_sample_ms":
            _stage_ms(stage_seconds, "sample"),
        "runtime.backends.worker_load_ms":
            _stage_ms(stage_seconds, "load"),
        "runtime.backends.worker_train_ms":
            _stage_ms(stage_seconds, "train"),
        "kernels.gather_bytes_per_op":
            kstats.get("gather_src_bytes", 0) / ops,
        "kernels.payload_bytes_per_op":
            kstats.get("payload_bytes", 0) / ops,
        "kernels.pool_hit_rate":
            pool_hits / pool_total if pool_total else 0.0,
        "runtime.drm.split_moves": moves / ops,
        "runtime.drm.cpu_quota_final":
            splits[-1].cpu_targets if splits else 0,
        "runtime.prefetch.depth_max": max(depths, default=0),
        "runtime.prefetch.train_occupancy":
            train_stage.mean_occupancy if train_stage else 0.0,
        "driver.op_p90_ms": percentile(walls, 90) * 1e3,
        "driver.op_cv": coeff_var(walls),
    }


def _shm_metrics(session: TrainingSession) -> dict[str, float]:
    """What a process-plane op pays before its first iteration: the
    dataset copy into a fresh segment and one worker-side mapping."""
    create, attach, size = [], [], 0
    for _ in range(3):
        quiesce()
        t0 = time.perf_counter()
        store = SharedFeatureStore.create(
            session.dataset,
            sampler_spec=session.shared_sampler_spec())
        try:
            t1 = time.perf_counter()
            mapped = SharedFeatureStore.attach(store.manifest)
            t2 = time.perf_counter()
            mapped.close()
            size = store.nbytes
        finally:
            store.close()
            store.unlink()
        create.append(t1 - t0)
        attach.append(t2 - t1)
    return {"runtime.shm.create_ms": median(create) * 1e3,
            "runtime.shm.attach_ms": median(attach) * 1e3,
            "runtime.shm.segment_mb": size / 1e6}


def _sweep(fx: TrainFixture, dataset, seed: int, smoke: bool,
           ledger: Ledger) -> dict[str, float]:
    """The per-backend table: the same fixture through every
    registered plane, median epoch wall each."""
    out = {}
    registered = set(available_backends())
    for name in SWEEP_BACKENDS:
        key = f"runtime.backends.sweep.{name}.op_p50_ms"
        if name not in registered:
            ledger.check(False, f"backend {name!r} is not registered")
            out[key] = 0.0
            continue
        session = make_session(fx, dataset, seed, smoke)
        backend = build_backend(name, session)
        run_op(backend, session, ledger)             # discarded
        quiesce()
        walls = [run_op(backend, session, ledger)[0]
                 for _ in range(SWEEP_EPOCHS)]
        out[key] = median(walls) * 1e3
    return out


def run_traced(name: str, seed: int, seconds: float, smoke: bool,
               ledger: Ledger, tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers for one training workload (the end-to-end
    pass never shares a session with this one: the replay consumes
    the plan and trains the model)."""
    fx = FIXTURES[name]
    t0 = time.perf_counter()
    dataset = make_dataset(fx, seed, smoke)
    materialize_s = time.perf_counter() - t0
    iterations = 6 if smoke else REPLAY_ITERATIONS
    probe = HostProbe()
    host = [probe.lap()]          # read again between the parts

    # (a) replay on two identically seeded sessions, spans on / off.
    init, pair = [], []
    for _ in range(2):
        quiesce()
        t0 = time.perf_counter()
        pair.append(make_session(fx, dataset, seed, smoke))
        init.append(time.perf_counter() - t0)
    quiesce()
    passes = replay(*pair, iterations, tracer, ledger)
    grad = pair[0].trainers[0].model.get_flat_grads()
    t0 = time.perf_counter()
    for _ in range(20):
        pickle.loads(pickle.dumps(grad, pickle.HIGHEST_PROTOCOL))
    roundtrip_us = (time.perf_counter() - t0) / 20 * 1e6

    pair.clear()
    host.append(probe.lap())

    # (b) the backend from outside.
    warmup_s, session, backend, losses = fresh_backend(
        fx, dataset, seed, smoke, ledger)
    walls, _, reports = timed_ops(backend, session, ledger,
                                  0.0 if smoke else 0.3 * seconds,
                                  3 if smoke else 5)
    losses += [mean(r.losses) for r in reports]
    host.append(probe.lap())

    m = {
        "graph.materialize_s": materialize_s,
        "graph.vertices": dataset.graph.num_vertices,
        "graph.edges": dataset.graph.num_edges,
        "graph.feature_mb": dataset.features.nbytes / 1e6,
        "runtime.core.session_init_s": median(init),
        "runtime.backends.ipc_grad_roundtrip_us": roundtrip_us,
        "driver.warmup_s": warmup_s,
        "driver.host_slowdown": median(host),
        "train.final_loss": losses[-1] if losses else 0.0,
        "train.loss_drop": loss_drop(losses),
    }
    m.update(_replay_metrics(fx, tracer, *passes))
    m.update(_envelope_metrics(walls, reports, session))
    iter_ms = m["runtime.backends.iter_ms"]
    m["runtime.backends.overlap_ratio"] = (
        m["runtime.backends.replay_iter_ms"] / iter_ms
        if iter_ms else 0.0)
    if fx.uses_shm:
        m.update(_shm_metrics(session))
    if fx.sweep:
        session = backend = None
        m.update(_sweep(fx, dataset, seed, smoke, ledger))
    return m
