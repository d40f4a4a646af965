#!/usr/bin/env python
"""Live processor-accelerator protocol demo (paper Listing 1, Fig. 5).

Runs hybrid synchronous-SGD training on *real threads*: a producer
thread plays Mini-batch Sampler + Feature Loader filling one bounded
prefetch buffer per trainer, while the caller's thread trains every
replica, all-reduces once all trainers are DONE, and ACKs each
optimizer step before the next iteration begins. Every handshake of
the paper's Listing 1 is recorded as it happens.

Prints the protocol event log for the first iterations and validates
every ordering invariant.

Run:  python examples/threaded_protocol.py
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig, TrainingConfig
from repro.graph.datasets import tiny_dataset
from repro.hw import hyscale_cpu_fpga_platform
from repro.runtime import TrainingSession, build_backend, validate_protocol


def main() -> None:
    dataset = tiny_dataset(num_vertices=800, feature_dim=24,
                           num_classes=4, avg_degree=10.0, seed=2)
    cfg = TrainingConfig(model="gcn", minibatch_size=48,
                         fanouts=(6, 4), hidden_dim=24,
                         learning_rate=0.05, seed=7)

    session = TrainingSession(
        dataset, cfg, SystemConfig(drm=False, prefetch_depth=2),
        num_trainers=3)
    backend = build_backend("threaded", session, timeout_s=60)
    print("running 8 iterations: 3 trainers fed by one producer "
          "thread ...")
    report = backend.run(8)

    print(f"\nwall time: {report.wall_time_s:.2f} s")
    print(f"losses: {[round(l, 3) for l in report.losses]}")
    print(f"replicas consistent: {report.replicas_consistent}")
    print(f"prefetch high-water mark: {report.prefetch_high_water} "
          f"(depth 2)")

    validate_protocol(report.protocol_log, session.num_trainers)
    print("protocol invariants: OK "
          "(n DONEs -> 1 SYNC -> n ACKs per iteration, no interleave)")

    print("\nprotocol log, iterations 0-1:")
    for event in report.protocol_log.events:
        if event.iteration > 1:
            break
        print(f"  iter {event.iteration}: {event.signal.value:5s} "
              f"from {event.sender}")

    # ------------------------------------------------------------------
    # The shared runtime core means the threaded plane also runs the
    # full hybrid system: CPU+FPGA split, DRM re-balancing and int8
    # PCIe transfer on live threads — identical results to
    # VirtualTimeBackend(session).run_epoch() for the same seed (see
    # tests/integration/test_backend_equivalence.py).
    # ------------------------------------------------------------------
    print("\nhybrid + DRM + int8 transfer on threads:")
    hybrid = TrainingSession(
        dataset, cfg,
        SystemConfig(hybrid=True, drm=True, prefetch=True,
                     transfer_precision="int8"),
        hyscale_cpu_fpga_platform(2))
    print(f"trainers: {[t.name for t in hybrid.trainers]}")
    rep = build_backend("threaded", hybrid, timeout_s=60).run_epoch()
    print(f"epoch: {rep.iterations} iterations, "
          f"final loss {rep.losses[-1]:.3f}, "
          f"virtual time {rep.virtual_time_s * 1e3:.2f} ms, "
          f"DRM decisions {len(hybrid.drm.decisions)}")
    print(f"replicas consistent: {rep.replicas_consistent}")


if __name__ == "__main__":
    main()
