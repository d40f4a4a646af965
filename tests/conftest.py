"""Shared fixtures for the test suite — and the leak check every test
runs under.

The live backends own real OS resources — worker processes and a
``/dev/shm`` segment on the process planes (for as long as the
*backend* lives: opened by its first ``run()``, reused, released by
``close()`` / ``with`` / going out of scope / a failed run), feed
threads on the threaded/pipelined planes. Their contract is that
nothing outlives the backend. The autouse fixture below re-checks that
contract after *every* test, unit and integration alike, so a teardown
regression fails the offending test immediately in CI instead of
silently leaking until the machine runs out of shared memory.
"""

from __future__ import annotations

import glob
import multiprocessing as mp
import threading
import time

import numpy as np
import pytest

from repro.config import SystemConfig, TrainingConfig
from repro.graph.csr import CSRGraph
from repro.graph.datasets import tiny_dataset
from repro.graph.generators import power_law_graph
from repro.hw.topology import (
    hyscale_cpu_fpga_platform,
    hyscale_cpu_gpu_platform,
)
from repro.sampling.neighbor import NeighborSampler

#: The SharedFeatureStore segment name prefix (runtime/shm.py).
_SHM_PATTERN = "/dev/shm/repro_shm_*"

#: Thread-name prefixes owned by the in-process driver's feed threads.
_BACKEND_THREAD_PREFIXES = ("producer", "lane")


def _segments() -> set[str]:
    return set(glob.glob(_SHM_PATTERN))


def _worker_processes() -> list[mp.process.BaseProcess]:
    # active_children() also reaps finished children; a pool joins its
    # workers in its one teardown, so anything still alive here leaked.
    return [p for p in mp.active_children() if p.is_alive()]


def _backend_threads() -> list[str]:
    return sorted(t.name for t in threading.enumerate()
                  if t.is_alive() and
                  t.name.startswith(_BACKEND_THREAD_PREFIXES))


@pytest.fixture(autouse=True)
def no_leaked_runtime_resources():
    """Assert every test tears its execution substrate down fully.

    Checks, in order: no new ``/dev/shm`` segment survived (process
    planes), no live worker process survived (process planes), and no
    backend feed thread survived (threaded/pipelined planes). A short
    grace period absorbs threads that are mid-exit after their final
    join returned. No ``gc.collect()`` on purpose: a backend that a
    test merely dropped must already be torn down by refcount alone.
    """
    segments_before = _segments()
    yield
    leaked_segments = _segments() - segments_before
    assert not leaked_segments, \
        f"test leaked shared-memory segments: {sorted(leaked_segments)}"

    leaked_procs = _worker_processes()
    assert not leaked_procs, \
        (f"test leaked live worker processes: "
         f"{[p.name for p in leaked_procs]}")

    deadline = time.monotonic() + 2.0
    threads = _backend_threads()
    while threads and time.monotonic() < deadline:
        time.sleep(0.01)
        threads = _backend_threads()
    assert not threads, \
        f"test leaked live backend stage threads: {threads}"


@pytest.fixture(scope="session")
def tiny_ds():
    """Small learnable dataset shared across tests (read-only)."""
    return tiny_dataset(num_vertices=400, feature_dim=12, num_classes=4,
                        avg_degree=8.0, seed=7)


@pytest.fixture(scope="session")
def medium_graph():
    """Mid-size power-law graph for sampler/statistics tests."""
    return power_law_graph(4000, 10.0, seed=3).symmetrize()


@pytest.fixture()
def line_graph():
    """Deterministic path graph 0 -> 1 -> 2 -> 3 (plus reverse)."""
    src = np.array([0, 1, 2, 1, 2, 3])
    dst = np.array([1, 2, 3, 0, 1, 2])
    return CSRGraph.from_edges(src, dst, 4)


@pytest.fixture()
def small_cfg():
    """Small training config usable on tiny_ds."""
    return TrainingConfig(model="sage", minibatch_size=32,
                          fanouts=(4, 3), hidden_dim=16,
                          learning_rate=0.05, seed=11)


@pytest.fixture()
def fpga_platform():
    return hyscale_cpu_fpga_platform(2)


@pytest.fixture()
def gpu_platform():
    return hyscale_cpu_gpu_platform(2)


@pytest.fixture(scope="session")
def tiny_sampler(tiny_ds):
    return NeighborSampler(tiny_ds.graph, tiny_ds.train_ids, (4, 3),
                           tiny_ds.spec.feature_dim, seed=5)
