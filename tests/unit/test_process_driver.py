"""The process plane's shape: one driver, presets that only declare,
and the worker wire protocol (one snapshot per run, unknown tags
refused).

The conformance matrix proves the seven planes *behave*; this module
pins how they are *built*, so the hook ladder the driver replaced
cannot grow back: no registered backend inherits from another, the
four process registry names are declarations over
:class:`~repro.runtime.backends.process.ProcessBackend`, and the only
post-run round trip a worker ever answers is ``snapshot``.
"""

import inspect
import multiprocessing as mp

import numpy as np
import pytest

from repro.config import SystemConfig, TrainingConfig, layer_dims
from repro.runtime import TrainingSession, available_backends, get_backend
from repro.runtime.backends.process import (
    InlineBody,
    OverlappedBody,
    ProcessBackend,
    ProcessSamplingBackend,
    WorkerReplica,
    WorkerSnapshot,
    WorkerSpec,
    worker_main,
)
from repro.runtime.shm import SharedFeatureStore, SharedPrefetchSpec

PROCESS_PRESETS = ("process", "process_sampling", "process_pipelined",
                   "sharded")


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

    def test_report_classes_under_backends(self):
        """The only report classes are RunReport and EpochReport."""
        import pkgutil

        import repro.runtime.backends as pkg
        reports = set()
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = __import__(f"{pkg.__name__}.{info.name}",
                             fromlist=["_"])
            reports |= {n for n, v in vars(mod).items()
                        if inspect.isclass(v) and n.endswith("Report")
                        and v.__module__ == mod.__name__}
        assert reports == {"RunReport", "EpochReport"}


def _spec(ds, body) -> WorkerSpec:
    return WorkerSpec(
        index=0, name="trainer0", kind="accel", model_name="sage",
        dims=layer_dims(ds.spec.feature_dim, 8, ds.spec.num_classes, 2),
        seed=3, learning_rate=0.05, transfer_precision="fp32",
        replica_cls=WorkerReplica, body=body)


class TestWorkerProtocol:
    @pytest.mark.parametrize("body", [InlineBody, OverlappedBody],
                             ids=["inline", "overlapped"])
    def test_one_snapshot_then_unknown_tag_is_protocol_error(
            self, body, tiny_ds):
        """Drive a real worker over its pipe: ``snapshot`` is answered
        exactly once (and carries the synced parameters); a tag outside
        the protocol kills the worker with a ProtocolError traceback."""
        ctx = mp.get_context("fork")
        store = SharedFeatureStore.create(
            tiny_ds, prefetch_spec=SharedPrefetchSpec(capacity=2,
                                                      timeout_s=10.0))
        parent, child = ctx.Pipe(duplex=True)
        spec = _spec(tiny_ds, body)
        proc = ctx.Process(target=worker_main,
                           args=(child, store.manifest, spec),
                           daemon=True)
        try:
            proc.start()
            child.close()
            assert parent.poll(10.0) and parent.recv() == ("ready", 0)
            from repro.nn.models import build_model
            params = build_model("sage", spec.dims,
                                 99).get_flat_params()
            parent.send(("init", params))
            parent.send(("snapshot",))
            assert parent.poll(10.0)
            tag, snap = parent.recv()
            assert tag == "snapshot" and isinstance(snap, WorkerSnapshot)
            np.testing.assert_array_equal(snap.params, params)
            assert snap.stage_totals == {}
            assert set(snap.buffers) == (
                set() if body is InlineBody
                else {"sample", "gather", "transfer", "train"})
            assert not parent.poll(0.2), "snapshot answered twice"

            parent.send(("kstats",))        # a retired tag: now unknown
            assert parent.poll(10.0)
            tag, tb = parent.recv()
            assert tag == "error"
            assert "ProtocolError" in tb and "kstats" in tb
            proc.join(timeout=10.0)
            assert not proc.is_alive()
        finally:
            parent.close()
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            store.close()
            store.unlink()

    def test_a_run_asks_each_worker_for_exactly_one_snapshot(
            self, tiny_ds):
        """Parent side of the same contract: per worker, one
        ``snapshot`` and no other post-run request."""
        cfg = TrainingConfig(model="sage", minibatch_size=32,
                             fanouts=(4, 3), hidden_dim=16,
                             learning_rate=0.05, seed=11)
        session = TrainingSession(
            tiny_ds, cfg, SystemConfig(hybrid=True, drm=False),
            num_trainers=2)
        backend = ProcessSamplingBackend(session, timeout_s=60)
        sent: list[tuple[int, str]] = []
        send = backend._send
        backend._send = lambda conns, idx, msg: (
            sent.append((idx, msg[0])), send(conns, idx, msg))[1]
        rep = backend.run(2)
        assert rep.replicas_consistent
        per_iter = {"train", "apply"}
        for idx in range(2):
            tags = [t for i, t in sent if i == idx]
            assert tags.count("snapshot") == 1
            assert tags[0] == "init" and tags[-1] == "snapshot"
            assert set(tags[1:-1]) == per_iter
            assert tags.count("train") == tags.count("apply") == 2
