#!/usr/bin/env python
"""Large-scale epoch simulation: reproduce a slice of paper Fig. 10.

Loads the scaled ogbn-papers100M stand-in, then simulates *paper-scale*
epochs (1.2M train vertices, batch 1024, fanouts 25/10) on three system
configurations:

* the multi-GPU PyTorch-Geometric baseline,
* HyScale-GNN on the CPU-GPU node,
* HyScale-GNN on the CPU-FPGA node,

printing per-stage breakdowns, the DRM engine's final workload split,
and the speedups to compare with the paper's Fig. 10 middle panel
(CPU+GPU 2.08x, CPU+FPGA 12.6x for GCN).

Run:  python examples/large_graph_epoch.py  [gcn|sage]
"""

from __future__ import annotations

import sys

from repro.baselines import PyGMultiGPUBaseline
from repro.config import ABLATION_PRESETS, TrainingConfig
from repro.graph.datasets import load_dataset
from repro.hw import (
    hyscale_cpu_fpga_platform,
    hyscale_cpu_gpu_platform,
)
from repro.runtime import TrainingSession, VirtualTimeBackend


def main(model: str = "gcn") -> None:
    print("loading scaled ogbn-papers100M stand-in ...")
    dataset = load_dataset("ogbn-papers100M", seed=0)
    print(f"  scaled graph: {dataset.graph.num_vertices:,} vertices / "
          f"{dataset.graph.num_edges:,} edges "
          f"(full scale: {dataset.spec.num_vertices:,} / "
          f"{dataset.spec.num_edges:,})")

    cfg = TrainingConfig(model=model, minibatch_size=1024,
                         fanouts=(25, 10), hidden_dim=256, seed=1)

    # --- multi-GPU PyG baseline -------------------------------------
    baseline = PyGMultiGPUBaseline(dataset, cfg, profile_probes=3)
    rep_base = baseline.simulate_epoch()
    print(f"\n[multi-GPU baseline]  epoch = {rep_base.virtual_time_s:.2f} s "
          f"({rep_base.iterations} iterations, serialized stages)")
    st = rep_base.stage_history[0]
    print("  stage times (ms):",
          {k: round(v * 1e3, 2) for k, v in st.as_dict().items()})

    # --- hybrid systems ----------------------------------------------
    for platform in (hyscale_cpu_gpu_platform(4),
                     hyscale_cpu_fpga_platform(4)):
        session = TrainingSession(dataset, cfg,
                                  ABLATION_PRESETS["hybrid_drm_tfp"],
                                  platform, full_scale=True,
                                  profile_probes=3)
        rep = VirtualTimeBackend(session).simulate_epoch()
        speedup = rep_base.virtual_time_s / rep.virtual_time_s
        print(f"\n[{platform.name}]")
        print(f"  epoch = {rep.virtual_time_s:.2f} s  "
              f"(speedup {speedup:.2f}x over baseline, "
              f"bottleneck = {rep.timeline.bottleneck_stage()})")
        print(f"  predicted (Eq. 6): "
              f"{session.predicted_epoch_time():.2f} s")
        split = session.split
        print(f"  DRM final split: CPU={split.cpu_targets} targets, "
              f"accel={split.accel_targets}, threads="
              f"(sample={split.sample_threads}, "
              f"load={split.load_threads}, "
              f"train={split.train_threads})")
        if session.drm is not None:
            actions = {}
            for d in session.drm.decisions:
                actions[d.action] = actions.get(d.action, 0) + 1
            print(f"  DRM decisions: {actions}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "gcn")
