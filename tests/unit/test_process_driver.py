"""The live planes' shape: two drivers, presets that only declare,
the worker wire protocol (one snapshot per run, dealt-ahead items
answered in order after each apply, unknown tags and
wrong-iteration applies refused, control-only pipes) and the pool's lifetime (one spawn per backend,
closed by ``close()`` / scope exit / a failed run).

The conformance matrix proves the seven planes *behave*; this module
pins how they are *built*, so the hook ladder the drivers replaced
cannot grow back: no registered backend inherits from another, the
four process registry names are declarations over
:class:`~repro.runtime.backends.process.ProcessBackend` and the three
in-process ones over
:class:`~repro.runtime.backends.pipelined.InProcessBackend` (the
thread-less ``virtual`` among them), Listing 1's handshake and the
all-reduce live in one function (an AST scan of the source), every
backend implements ``run`` alone, each name's knobs match an explicit
table, one report class exists, the only
post-run round trip a worker ever answers is ``snapshot``, the
workers + store a backend opens on its first ``run()`` are the ones
every later ``run()`` uses, and opening them moves the session's
dataset into the segment, readable however the pool ends.
"""

import ast
import contextlib
import dataclasses
import gc
import glob
import inspect
import multiprocessing as mp
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import SystemConfig, layer_dims
from repro.errors import ConfigError, WorkerError
from repro.graph.datasets import tiny_dataset
from repro.runtime import (
    ExecutionBackend,
    TrainingSession,
    available_backends,
    build_backend,
    get_backend,
)
from repro.runtime.backends import pipelined
from repro.runtime.backends.pipelined import InProcessBackend
from repro.runtime.backends.process import (
    ProcessBackend,
    Reply,
    WorkerReplica,
    WorkerSnapshot,
    WorkerSpec,
    _join,
    worker_main,
)
from repro.runtime.shm import SharedFeatureStore

PROCESS_PRESETS = ("process", "process_sampling", "process_pipelined",
                   "sharded")

SRC = Path(repro.__file__).parent
LISTING1_SIGNALS = {"DONE", "SYNC", "ACK", "ITER_START"}

#: Each registry name's ``build_backend`` keywords.
_LOOKAHEAD = {"timeout_s"}
BACKEND_KEYWORDS = {
    "virtual": set(),
    "threaded": {"timeout_s"},
    "pipelined": _LOOKAHEAD,
    "process": {"timeout_s", "mp_context"},
    "process_sampling": {"timeout_s", "mp_context"},
    "process_pipelined": _LOOKAHEAD | {"mp_context"},
    "sharded": {"timeout_s", "mp_context", "partitioner",
                "partition_seed", "remote_cache_rows"},
}

#: The window each registry name opens: ``"session"`` is the
#: session's window (``prefetch_depth`` under two-stage prefetch, else
#: 1); ``process`` samples in the parent and deals lock-step under any
#: config.
WINDOWS = {
    "virtual": "session",
    "threaded": "session",
    "pipelined": "session",
    "process": "lock-step",
    "process_sampling": "session",
    "process_pipelined": "session",
    "sharded": "session",
}


def _attr_name(node) -> str | None:
    """``x.y`` → ``"y"``, ``y`` → ``"y"``, anything else → ``None``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _functions_where(root: Path, matches) -> set[str]:
    """``"<path under root>:<innermost function>"`` for every AST node
    in ``root``'s Python files that ``matches``."""
    found = set()

    def visit(node, path: str, func: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if matches(node):
            found.add(f"{path}:{func}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, func)

    for file in sorted(root.rglob("*.py")):
        visit(ast.parse(file.read_text()),
              file.relative_to(root).as_posix(), None)
    return found


class TestStructure:
    def test_no_registered_backend_inherits_another(self):
        classes = [get_backend(name) for name in available_backends()]
        for cls in classes:
            for other in classes:
                assert cls is other or not issubclass(cls, other), \
                    f"{cls.__name__} inherits from {other.__name__}"

    @pytest.mark.parametrize("name", PROCESS_PRESETS)
    def test_process_names_are_presets_of_one_driver(self, name):
        """A preset is class attributes plus, at most, ``__init__`` —
        it overrides no method of the driver."""
        cls = get_backend(name)
        assert cls.__bases__ == (ProcessBackend,)
        assert ProcessBackend.name == ""     # the driver is no plane
        defined = {attr for attr, value in vars(cls).items()
                   if inspect.isfunction(value)}
        assert defined <= {"__init__"}, \
            f"{name} overrides driver methods: {sorted(defined)}"

    @pytest.mark.parametrize("timing", [False, True],
                             ids=["functional", "timing"])
    @pytest.mark.parametrize("prefetch, depth",
                             [(True, 2), (True, 4), (False, 3)])
    def test_window_per_preset(self, tiny_ds, small_cfg, gpu_platform,
                               prefetch, depth, timing, monkeypatch):
        """The window every registry name opens, from one rule
        (:data:`WINDOWS`): the session's window, or lock-step for
        ``process`` under any config — on a timing session with DRM
        too, where the two presets that read the clock (``pipelined``,
        ``process_pipelined``, the only two that declare
        ``drm_reads_clock``) hold the same window. ``virtual``'s inline feed opens it too, and
        holds one batch regardless."""
        want = {"session": depth if prefetch else 1, "lock-step": 1}
        opened, clocked = {}, set()
        real_window = ExecutionBackend.window

        def spy(backend, **kwargs):
            opened[backend.name] = real_window(backend, **kwargs)
            return opened[backend.name]

        monkeypatch.setattr(ExecutionBackend, "window", spy)
        sys_cfg = SystemConfig(hybrid=True, drm=timing, prefetch=prefetch,
                               prefetch_depth=depth)
        for name in available_backends():
            if timing:
                session = TrainingSession(tiny_ds, small_cfg, sys_cfg,
                                          gpu_platform, profile_probes=2)
            else:
                session = TrainingSession(tiny_ds, small_cfg, sys_cfg,
                                          num_trainers=2)
            with build_backend(name, session) as backend:
                backend.run(2)
            if backend.drm_reads_clock:
                clocked.add(name)
        assert opened == {name: want[rule]
                          for name, rule in WINDOWS.items()}
        assert clocked == {"pipelined", "process_pipelined"}

    @pytest.mark.parametrize("name", ["threaded", "pipelined"])
    def test_inprocess_names_are_presets_of_one_driver(self, name):
        """The in-process planes are the same kind of declaration over
        :class:`~repro.runtime.backends.pipelined.InProcessBackend`,
        class attributes only: no trainer threads or handshake state
        machine of their own."""
        cls = get_backend(name)
        assert cls.__bases__ == (InProcessBackend,)
        assert InProcessBackend.name == ""
        defined = {attr for attr, value in vars(cls).items()
                   if inspect.isfunction(value)}
        assert not defined, \
            f"{name} overrides driver methods: {sorted(defined)}"

    def test_virtual_is_the_threadless_inprocess_preset(
            self, tiny_ds, small_cfg, monkeypatch):
        """``virtual`` runs the in-process driver's own ``run`` and
        starts no thread doing it: its feed trains each batch on the
        caller's thread before the next one loads."""
        cls = get_backend("virtual")
        assert cls.__bases__ == (InProcessBackend,)
        assert "run" not in vars(cls)
        backend = cls(TrainingSession(tiny_ds, small_cfg,
                                      SystemConfig(drm=False),
                                      num_trainers=2))
        started = []
        real_start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        rep = backend.run(3)
        assert started == []
        assert len(rep.losses) == 3 and rep.replicas_consistent

    @pytest.mark.parametrize("cores", [1, 3])
    @pytest.mark.parametrize("name", ["threaded", "pipelined"])
    def test_laned_presets_start_feed_threads_then_lanes(
            self, name, cores, tiny_ds, small_cfg, monkeypatch):
        """A laned preset starts its feed's one sampling thread, then
        one ``lane<k>`` per lane beyond the caller's — ``min(trainers,
        usable cores)`` lanes in all, so none on a one-core host."""
        feed_threads = {"threaded": ["producer"],
                        "pipelined": ["producer"]}[name]
        monkeypatch.setattr(pipelined, "usable_cores", lambda: cores)
        backend = get_backend(name)(TrainingSession(
            tiny_ds, small_cfg, SystemConfig(drm=False),
            num_trainers=3))
        started = []
        real_start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        rep = backend.run(3)
        assert started == [*feed_threads,
                           *(f"lane{k}" for k in range(1, cores))]
        assert len(rep.losses) == 3 and rep.replicas_consistent

    def test_listing1_is_recorded_in_one_function(self):
        """``DONE`` / ``SYNC`` / ``ACK`` / ``ITER`` are recorded in
        exactly one function in ``src/repro/`` — the synchronize tail
        every plane ends an iteration in."""
        recorders = _functions_where(
            SRC, lambda node: isinstance(node, ast.Call)
            and _attr_name(node.func) == "record"
            and any(_attr_name(arg) in LISTING1_SIGNALS
                    and _attr_name(getattr(arg, "value", None))
                    == "Signal" for arg in node.args))
        assert recorders == {"runtime/backends/base.py:end_iteration"}

    def test_all_reduce_is_called_from_one_backend_function(self):
        callers = _functions_where(
            SRC / "runtime" / "backends",
            lambda node: isinstance(node, ast.Call)
            and _attr_name(node.func) == "all_reduce"
            and _attr_name(node.func.value) == "synchronizer")
        assert callers == {"base.py:end_iteration"}

    def test_stage_seconds_are_billed_in_one_place(self):
        """``report.stage_seconds`` is written by one function in
        ``src/repro/``, and only the synchronize tail calls it."""
        def writes(node) -> bool:
            target = node.value if isinstance(node, ast.Subscript) \
                else node
            return isinstance(getattr(node, "ctx", None), ast.Store) \
                and isinstance(target, ast.Attribute) \
                and target.attr == "stage_seconds"

        assert _functions_where(SRC, writes) == \
            {"runtime/backends/report.py:add_stage_seconds"}
        assert _functions_where(
            SRC, lambda node: isinstance(node, ast.Call)
            and _attr_name(node.func) == "add_stage_seconds") == \
            {"runtime/backends/base.py:end_iteration"}

    def test_worker_snapshot_carries_no_stage_seconds(self):
        """Stage seconds reach the parent once, on each reply; the
        run-end snapshot is parameters, kernel counters and the
        sampler stream's position only."""
        assert {f.name for f in dataclasses.fields(WorkerSnapshot)} \
            == {"params", "kernel_stats", "stream"}

    def test_process_workers_run_no_threads(self):
        """A worker is one message loop on one thread: the process
        driver's module imports no threading and none of the stage-
        thread machinery (look-ahead is the body's queue, not a
        pipeline inside the worker)."""
        tree = ast.parse(
            (SRC / "runtime" / "backends" / "process.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported |= {node.module or ""}
                imported |= {alias.name for alias in node.names}
        assert not imported & {"threading", "PrefetchBuffer",
                               "StageChain"}

    @pytest.mark.parametrize("name", available_backends())
    def test_every_backend_implements_run_and_inherits_run_epoch(
            self, name):
        cls = get_backend(name)
        assert not inspect.isabstract(cls)
        assert cls.run_epoch is ExecutionBackend.run_epoch, \
            f"{name} overrides run_epoch"

    @pytest.mark.parametrize("name", sorted(BACKEND_KEYWORDS))
    def test_backend_keywords_are_pinned(self, name):
        """Every registered name's knobs, pinned: a new knob shows up
        here as a diff, and the deleted ``depth_source`` is refused at
        the front door like any unknown one."""
        assert set(available_backends()) == set(BACKEND_KEYWORDS)
        params = inspect.signature(get_backend(name).__init__).parameters
        assert set(params) - {"self", "session"} == \
            BACKEND_KEYWORDS[name]
        with pytest.raises(ConfigError, match="depth_source"):
            build_backend(name, None, depth_source="realized")

    def test_report_classes_under_backends(self):
        """Every backend, ``virtual`` and ``simulate_epoch`` included,
        reports through one class."""
        import pkgutil

        import repro.runtime.backends as pkg
        reports = set()
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = __import__(f"{pkg.__name__}.{info.name}",
                             fromlist=["_"])
            reports |= {n for n, v in vars(mod).items()
                        if inspect.isclass(v) and n.endswith("Report")
                        and v.__module__ == mod.__name__}
        assert reports == {"RunReport"}


def _spec(ds) -> WorkerSpec:
    return WorkerSpec(
        index=0, name="trainer0", kind="accel", model_name="sage",
        dims=layer_dims(ds.spec.feature_dim, 8, ds.spec.num_classes, 2),
        seed=3, learning_rate=0.05, transfer_precision="fp32",
        replica_cls=WorkerReplica)


@contextlib.contextmanager
def _live_worker(ds, sampler_spec=None):
    """One real worker over its pipe: yields ``(parent_conn, params)``
    after the ready handshake. The block must end with the worker gone
    (a fatal ProtocolError or a ``stop``); the process and the store
    are torn down either way. The worker samples dealt target ids
    itself, with the sampler ``sampler_spec`` (default: the default
    training config's) describes."""
    from repro.config import TrainingConfig
    from repro.runtime.shm import SharedSamplerSpec
    if sampler_spec is None:
        sampler_spec = SharedSamplerSpec(
            train_cfg=TrainingConfig(), feature_dim=ds.spec.feature_dim)
    ctx = mp.get_context("fork")
    spec = _spec(ds)
    from repro.nn.models import build_model
    init_model = build_model("sage", spec.dims, 99)
    store = SharedFeatureStore.create(
        ds, sampler_spec=sampler_spec, grad_slab=np.zeros_like(init_model.get_flat_params(),
                                    shape=(2, init_model.num_params)))
    parent, child = ctx.Pipe(duplex=True)
    proc = ctx.Process(target=worker_main,
                       args=(child, store.manifest, spec), daemon=True)
    try:
        proc.start()
        child.close()
        assert parent.poll(10.0) and parent.recv() == ("ready", 0)
        yield parent, init_model.get_flat_params()
        proc.join(timeout=10.0)
        assert not proc.is_alive()
    finally:
        parent.close()
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
        store.close()
        store.unlink()


def _expect_protocol_error(parent, *needles: str) -> None:
    assert parent.poll(10.0)
    tag, tb = parent.recv()
    assert tag == "error"
    assert "ProtocolError" in tb
    for needle in needles:
        assert needle in tb


class TestWorkerProtocol:
    def test_one_snapshot_then_unknown_tag_is_protocol_error(
            self, tiny_ds):
        """Drive a real worker over its pipe: ``snapshot`` is answered
        exactly once (and carries the synced parameters); a tag outside
        the protocol kills the worker with a ProtocolError traceback."""
        with _live_worker(tiny_ds) as (parent, init_params):
            # Two runs on the one process: ``snapshot`` ends a run,
            # not the worker, and the next ``init`` begins afresh.
            for scale in (1.0, 2.0):
                params = init_params * scale
                parent.send(("init", params, None))
                parent.send(("snapshot",))
                assert parent.poll(10.0)
                tag, snap = parent.recv()
                assert tag == "snapshot" and \
                    isinstance(snap, WorkerSnapshot)
                np.testing.assert_array_equal(snap.params, params)
                assert not parent.poll(0.2), "snapshot answered twice"

            parent.send(("kstats",))        # a retired tag: now unknown
            _expect_protocol_error(parent, "kstats")

    def test_apply_for_the_wrong_iteration_is_protocol_error(
            self, tiny_ds):
        """A worker applies only the update of the iteration it last
        answered: an ``apply`` naming any other iteration kills it with
        a ProtocolError traceback instead of stepping on the wrong
        average row."""
        with _live_worker(tiny_ds) as (parent, params):
            parent.send(("init", params, None))
            parent.send(("train", 0, None))
            assert parent.poll(10.0) and parent.recv() == ("idle", 0)
            parent.send(("apply", 5))
            _expect_protocol_error(parent, "iteration 5", "expected 0")

    def test_dealt_ahead_items_are_answered_after_each_apply(
            self, tiny_ds, small_cfg):
        """Look-ahead over a real pipe: three iterations dealt at once
        are answered one at a time, in order, each only after the
        previous iteration's ``apply`` — an idle deal included."""
        from repro.runtime.shm import SharedSamplerSpec
        sampler_spec = SharedSamplerSpec(
            train_cfg=small_cfg, feature_dim=tiny_ds.spec.feature_dim)
        with _live_worker(tiny_ds, sampler_spec) as (parent, params):
            parent.send(("init", params, None))
            targets = tiny_ds.train_ids[:16]
            parent.send(("train", 0, targets))
            parent.send(("train", 1, None))
            parent.send(("train", 2, targets))
            answers = []
            for it in range(3):
                assert parent.poll(10.0)
                answers.append(parent.recv())
                assert not parent.poll(0.2), \
                    f"answered past iteration {it} before its apply"
                parent.send(("apply", it))
            assert [a[:2] for a in answers] == \
                [("result", 0), ("idle", 1), ("result", 2)]
            for _, _, reply in (answers[0], answers[2]):
                assert isinstance(reply, Reply)
                assert set(reply.stage_s) >= {"sample", "load", "train"}
            parent.send(("stop",))

    def test_a_run_asks_each_worker_for_exactly_one_snapshot(
            self, make_session, parent_traffic):
        """Parent side of the same contract: per worker and per run,
        one ``init``, one ``snapshot`` and no other bracket message —
        and, between them, every worker answers every dealt iteration
        (a ``result``, or an ``idle`` token: the slab invariant)."""
        with get_backend("process_sampling")(
                make_session(3), timeout_s=60) as backend:
            rep = backend.run_epoch()
        assert rep.replicas_consistent
        assert any(0 in dealt for dealt in rep.dealt_sizes), \
            "fixture no longer deals an idle iteration"
        channels = _by_channel(parent_traffic)
        assert len(channels) == 3
        for msgs in channels.values():
            sent = [m[0] for d, m in msgs if d == "send"]
            assert sent[0] == "init" and sent[-2:] == ["snapshot",
                                                       "stop"]
            assert set(sent[1:-2]) == {"train", "apply"}
            assert sent.count("train") == sent.count("apply") == \
                rep.iterations
            got = [m for d, m in msgs if d == "recv"]
            assert got[0][0] == "ready" and got[-1][0] == "snapshot"
            assert [m[1] for m in got[1:-1]] == \
                list(range(rep.iterations))
            assert {m[0] for m in got[1:-1]} <= {"result", "idle"}

    @pytest.mark.parametrize("name", ["process_sampling",
                                      "process_pipelined", "sharded"])
    def test_pipes_carry_control_only(self, name, make_session,
                                      parent_traffic):
        """Between a run's ``init`` and its ``snapshot`` nothing that
        crosses a pipe — either direction — is bulk: no message
        pickles to more than a few KB and none carries a length-``P``
        float array (gradients and the averaged update live in the
        store's slab; ``Reply`` has no gradient field)."""
        assert "grads" not in Reply.__dataclass_fields__
        session = make_session()
        num_params = session.trainers[0].model.num_params
        with get_backend(name)(session, timeout_s=60) as backend:
            backend.run(3)
            backend.run(3)
        seen = 0
        for msgs in _by_channel(parent_traffic).values():
            in_run = False
            for _, msg in msgs:
                if msg[0] == "snapshot":
                    in_run = False
                if in_run:
                    seen += 1
                    assert len(pickle.dumps(msg)) < 4096, msg[0]
                    assert not any(
                        a.size == num_params and a.dtype.kind == "f"
                        for a in _arrays(msg)), msg[0]
                if msg[0] == "init":
                    in_run = True
        assert seen >= 2 * 2 * 3 * 3    # runs x workers x its x tags


class TestPoolLifetime:
    """Workers and the store live as long as the backend, not the
    run: opened lazily, reused, and released by ``close()`` or by the
    backend going out of scope."""

    @pytest.mark.parametrize("name", PROCESS_PRESETS)
    def test_one_spawn_per_backend(self, name, make_session):
        backend = get_backend(name)(make_session(), timeout_s=60)
        assert _pool_footprint() == (set(), set())   # lazy: no run yet
        backend.run(2)
        first = _pool_footprint()
        assert len(first[0]) == 2 and len(first[1]) == 1
        backend.run(2)
        backend.run_epoch()
        assert _pool_footprint() == first

        backend.close()
        assert _pool_footprint() == (set(), set())
        backend.close()                               # idempotent

        backend.run(2)                                # reopens
        again = _pool_footprint()
        assert len(again[0]) == 2 and len(again[1]) == 1
        assert not again[0] & first[0] and not again[1] & first[1]
        backend.close()

    def test_with_block_closes(self, make_session):
        from repro.runtime import build_backend
        with build_backend("process", make_session()) as backend:
            backend.run(1)
            assert _pool_footprint() != (set(), set())
        assert _pool_footprint() == (set(), set())
        # Every plane has the same surface; in-process ones own nothing.
        with build_backend("threaded", make_session()) as backend:
            backend.run(1)

    def test_join_waits_out_one_deadline_for_the_pool(self):
        """Shutdown joins every worker against one shared deadline:
        three workers that never exit cost one timeout between them,
        not one each."""
        waits = []

        class Wedged:
            def join(self, timeout=None):
                waits.append(timeout)
                time.sleep(timeout)

        start = time.monotonic()
        _join([Wedged() for _ in range(3)], 0.3)
        assert len(waits) == 3
        assert sum(waits) <= 0.3
        assert time.monotonic() - start < 0.6

    @pytest.mark.parametrize("name", PROCESS_PRESETS)
    def test_unclosed_backend_is_torn_down_by_refcount_alone(
            self, name, make_session):
        """``bench_e2e`` drops backends by rebinding a local and then
        checks for leaks with no ``gc.collect()``: the pool must not
        sit in a reference cycle."""
        gc.collect()
        gc.disable()
        try:
            backend = get_backend(name)(make_session(),
                                        timeout_s=60)
            backend.run(2)
            assert _pool_footprint() != (set(), set())
            del backend
            assert _pool_footprint() == (set(), set())
        finally:
            gc.enable()


#: ``tiny_ds``'s arguments: a dataset of its own per test, so adopting
#: it into a segment touches no other test's arrays.
TINY = dict(num_vertices=400, feature_dim=12, num_classes=4,
            avg_degree=8.0, seed=7)


def _dataset_arrays(session) -> dict[str, np.ndarray]:
    """Every reference a session holds to the dataset's big arrays."""
    ds = session.dataset
    return {"features": ds.features, "labels": ds.labels,
            "indptr": ds.graph.indptr, "indices": ds.graph.indices,
            "pipeline.features": session.pipeline.features,
            "pipeline.labels": session.pipeline.labels}


def _session(ds, cfg) -> TrainingSession:
    return TrainingSession(ds, cfg, SystemConfig(hybrid=True, drm=False),
                           num_trainers=2)


def _assert_reads_like_a_fresh_dataset(session, cfg) -> None:
    """The session's arrays equal a fresh twin's bit for bit, and a
    ``threaded`` epoch over them equals a ``virtual`` epoch on a twin
    session that never opened a pool."""
    twin_ds = tiny_dataset(**TINY)
    twin = _session(twin_ds, cfg)
    for key, arr in _dataset_arrays(session).items():
        want = _dataset_arrays(twin)[key]
        assert arr.dtype == want.dtype, key
        np.testing.assert_array_equal(arr, want, err_msg=key)
    with build_backend("threaded", _session(session.dataset, cfg)) as b:
        got = b.run_epoch()
    want = build_backend("virtual", twin).run_epoch()
    np.testing.assert_array_equal(got.losses, want.losses)


class TestDatasetLivesOnce:
    """Opening a process pool moves the session's dataset into the
    segment: its features, labels and CSR (and the pipeline's) become
    read-only views of it before any worker forks, and the private
    arrays go. However the pool ends, no name is left in ``/dev/shm``
    and the session keeps reading the same bits."""

    @pytest.mark.parametrize("ending", ["close", "drop", "killed"])
    @pytest.mark.parametrize("name", PROCESS_PRESETS)
    def test_epoch_adopts_the_segment(self, name, ending, small_cfg):
        session = _session(tiny_dataset(**TINY), small_cfg)
        private = {k: weakref.ref(a)
                   for k, a in _dataset_arrays(session).items()}
        backend = get_backend(name)(session, timeout_s=60)
        backend.run_epoch()
        store = backend._pool.store
        shared = {"features": store.features, "labels": store.labels,
                  "indptr": store.indptr, "indices": store.indices}
        for key, arr in _dataset_arrays(session).items():
            assert np.shares_memory(arr, shared[key.split(".")[-1]]), key
            assert not arr.flags.writeable, key
            assert private[key]() is None, f"private {key} lives on"
        del store, shared

        if ending == "close":
            backend.close()
        elif ending == "drop":
            gc.disable()            # refcount alone, as bench_e2e drops
            try:
                del backend
            finally:
                gc.enable()
        else:
            victim = backend._pool.procs[-1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10)
            with pytest.raises(WorkerError):
                backend.run(2)
        assert _pool_footprint() == (set(), set())
        with build_backend("threaded", session) as reuse:
            assert np.isfinite(reuse.run_epoch().losses).all()
        _assert_reads_like_a_fresh_dataset(session, small_cfg)

    @pytest.mark.parametrize("name", PROCESS_PRESETS)
    def test_reopen_copies_from_the_unlinked_segment(self, name,
                                                     small_cfg):
        """open → close → open on one dataset: the second segment is
        filled from the first, which goes once the session adopts the
        second."""
        session = _session(tiny_dataset(**TINY), small_cfg)
        backend = get_backend(name)(session, timeout_s=60)
        backend.run(2)
        backend.close()
        first = weakref.ref(session.dataset.features)
        backend.run(2)
        assert first() is None
        assert np.shares_memory(session.dataset.features,
                                backend._pool.store.features)
        backend.close()
        _assert_reads_like_a_fresh_dataset(session, small_cfg)

    @pytest.mark.parametrize("close_first", ["first", "second"])
    def test_two_sessions_over_one_dataset(self, close_first, small_cfg):
        """Two sessions over one dataset each open a pool; closing them
        in either order leaves both reading the dataset."""
        ds = tiny_dataset(**TINY)
        sessions = [_session(ds, small_cfg), _session(ds, small_cfg)]
        backends = [build_backend("process", s, timeout_s=60)
                    for s in sessions]
        for b in backends:
            b.run(2)
        order = backends if close_first == "first" else backends[::-1]
        for b in order:
            b.close()
        assert _pool_footprint() == (set(), set())
        for s in sessions:
            with build_backend("threaded", s) as reuse:
                assert np.isfinite(reuse.run(2).losses).all()
        _assert_reads_like_a_fresh_dataset(sessions[0], small_cfg)

    def test_no_crash_or_unraisable_after_any_teardown(self):
        """close(), the finalizer and a failed run, then reads of the
        dataset, in a child interpreter: a read of unmapped memory
        shows as a signal there, an error in a finalizer as
        ``Exception ignored``."""
        script = """
import gc, os, signal
import numpy as np
from repro.config import SystemConfig, TrainingConfig
from repro.errors import WorkerError
from repro.graph.datasets import tiny_dataset
from repro.runtime import TrainingSession, build_backend
ds = tiny_dataset(**%r)
twin = tiny_dataset(**%r)
cfg = TrainingConfig(model="sage", minibatch_size=32, fanouts=(4, 3),
                     hidden_dim=16, learning_rate=0.05, seed=11)
def check():
    gc.collect()
    churn = [np.ones(1 << 16) for _ in range(64)]
    assert np.array_equal(ds.features, twin.features)
    assert np.array_equal(ds.graph.indices, twin.graph.indices)
s = TrainingSession(ds, cfg, SystemConfig(hybrid=True, drm=False),
                    num_trainers=2)
b = build_backend("process", s, timeout_s=60)
b.run(2); b.close(); check()
b.run(2); b = None; check()
b = build_backend("process", s, timeout_s=60)
b.run(2)
os.kill(b._pool.procs[0].pid, signal.SIGKILL)
b._pool.procs[0].join(10)
try:
    b.run(2)
except WorkerError:
    pass
check()
b.run(2); check()
print("done")
""" % (TINY, TINY)
        src = Path(repro.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (proc.returncode, proc.stderr)
        assert "done" in proc.stdout
        assert "Exception ignored" not in proc.stderr


@pytest.fixture()
def make_session(tiny_ds, small_cfg):
    """Functional two-trainer (by default) sessions over ``tiny_ds``."""
    def make(n: int = 2) -> TrainingSession:
        return TrainingSession(tiny_ds, small_cfg,
                               SystemConfig(hybrid=True, drm=False),
                               num_trainers=n)
    return make


def _pool_footprint() -> tuple[set[int], set[str]]:
    """What a live pool is from the outside: worker pids and
    segments."""
    return ({p.pid for p in mp.active_children()},
            set(glob.glob("/dev/shm/" + SharedFeatureStore.NAME_PREFIX
                          + "*")))


@pytest.fixture()
def parent_traffic(monkeypatch):
    """Every message this process sends or receives over a
    ``multiprocessing`` pipe, as ``(fd, direction, message)``. Patched
    on the connection class, so no backend attribute is touched and no
    reference cycle through a backend is built; forked workers inherit
    the patch but only the parent records."""
    from multiprocessing.connection import Connection
    log: list = []
    pid = os.getpid()
    send, recv = Connection.send, Connection.recv

    def spy_send(self, msg):
        if os.getpid() == pid:
            log.append((self.fileno(), "send", msg))
        return send(self, msg)

    def spy_recv(self):
        fd = self.fileno()
        msg = recv(self)
        if os.getpid() == pid:
            log.append((fd, "recv", msg))
        return msg

    monkeypatch.setattr(Connection, "send", spy_send)
    monkeypatch.setattr(Connection, "recv", spy_recv)
    return log


def _by_channel(traffic) -> dict[int, list]:
    channels: dict[int, list] = {}
    for fd, direction, msg in traffic:
        channels.setdefault(fd, []).append((direction, msg))
    return channels


def _arrays(obj):
    """Every ndarray reachable from a wire message."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        yield from _arrays(list(obj.values()))
    elif hasattr(obj, "__dataclass_fields__"):
        yield from _arrays([getattr(obj, f)
                            for f in obj.__dataclass_fields__])
