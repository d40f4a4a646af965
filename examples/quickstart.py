#!/usr/bin/env python
"""Quickstart: train a GraphSAGE model with HyScale-GNN in two minutes.

Builds a small synthetic dataset, constructs the hybrid training system
on the paper's CPU-FPGA platform (2 FPGAs to keep it snappy), trains a
few functional epochs, and prints the loss curve, the virtual-time
pipeline picture, and where the bottleneck sits.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.config import TrainingConfig
from repro.graph.datasets import tiny_dataset
from repro.hw import hyscale_cpu_fpga_platform
from repro.perfmodel import throughput_mteps
from repro.runtime import TrainingSession, VirtualTimeBackend
from repro.sim.trace import render_gantt


def main() -> None:
    # 1. A dataset. (Swap in repro.graph.load_dataset("ogbn-products")
    #    for a scaled stand-in of a paper dataset.)
    dataset = tiny_dataset(num_vertices=1000, feature_dim=32,
                           num_classes=5, avg_degree=12.0, seed=0)
    print(f"dataset: {dataset.graph.num_vertices} vertices, "
          f"{dataset.graph.num_edges} edges, "
          f"{dataset.train_ids.size} train targets")

    # 2. The training recipe (paper defaults, scaled down).
    cfg = TrainingConfig(model="sage", minibatch_size=64,
                         fanouts=(10, 5), hidden_dim=32,
                         learning_rate=0.05, seed=1)

    # 3. The system: CPU trainer + 2 FPGA trainers, DRM and two-stage
    #    feature prefetching on (all defaults of SystemConfig), run on
    #    the modelled-hardware (virtual-time) backend.
    session = TrainingSession(dataset, cfg,
                              platform=hyscale_cpu_fpga_platform(2))
    backend = VirtualTimeBackend(session)
    print(f"trainers: {[t.name for t in session.trainers]}")
    print(f"initial workload split: CPU={session.split.cpu_targets} "
          f"targets, accelerators={session.split.accel_targets}")

    # 4. Train. Forward/backward/all-reduce are real NumPy math; the
    #    epoch time is virtual (modelled-hardware) time.
    for epoch in range(5):
        report = backend.run_epoch()
        mteps = throughput_mteps(report.total_edges, report.virtual_time_s)
        print(f"epoch {epoch}: loss={np.mean(report.losses):.4f} "
              f"acc={np.mean(report.accuracies):.3f} "
              f"virtual_time={report.virtual_time_s * 1e3:.2f} ms "
              f"({mteps:.0f} MTEPS, "
              f"bottleneck={report.timeline.bottleneck_stage()})")

    # 5. All replicas agree after synchronous training.
    assert session.synchronizer.replicas_consistent()
    print("replicas consistent: True")

    # 6. Peek at the pipeline (first few iterations of the last epoch).
    spans = [s for s in report.timeline.spans if s.iteration < 3]
    from repro.sim.trace import Timeline
    print("\nPipeline timeline (first 3 iterations):")
    print(render_gantt(Timeline(spans), width=76))


if __name__ == "__main__":
    main()
