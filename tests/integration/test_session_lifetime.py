"""A dropped session and its backend are freed at ``del``, not at the
cyclic collector's next pass.

Until a gen-2 collection a session in a reference cycle keeps its wire
table, its replicas and its sampler's position map alive, so sessions
built in a row without one grow the resident set by a session each.
Every registered backend runs an epoch and closes with the collector
off; weak references to both then die with the last strong one.
"""

import gc
import weakref

import pytest

from repro import SystemConfig, TrainingConfig
from repro.runtime import TrainingSession, build_backend
from repro.runtime.backends import available_backends


@pytest.mark.parametrize("name", available_backends())
def test_session_and_backend_die_without_the_cyclic_collector(name,
                                                              tiny_ds):
    cfg = TrainingConfig(model="sage", minibatch_size=32, fanouts=(4, 3),
                         hidden_dim=16, learning_rate=0.05, seed=11)
    gc.collect()
    gc.disable()
    try:
        session = TrainingSession(
            tiny_ds, cfg, SystemConfig(drm=False,
                                       transfer_precision="int8"),
            num_trainers=3)
        backend = build_backend(name, session)
        backend.run_epoch()
        backend.close()
        refs = weakref.ref(session), weakref.ref(backend)
        del session, backend
        assert [r() is None for r in refs] == [True, True]
    finally:
        gc.enable()
