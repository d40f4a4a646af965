#!/usr/bin/env python
"""Watch the DRM engine rebalance a deliberately bad task mapping.

Starts the hybrid system from a *mis-sized* workload split (everything
on the accelerators, CPU idle, loader starved of threads), then lets
Algorithm 1 run for 150 simulated iterations and plots (in ASCII) how
the per-iteration time falls as balance_work / balance_thread moves
fire and the revert guard rejects regressions.

Run:  python examples/drm_visualizer.py
"""

from __future__ import annotations

import numpy as np

from repro.config import ABLATION_PRESETS, TrainingConfig
from repro.graph.datasets import load_dataset
from repro.hw import hyscale_cpu_gpu_platform
from repro.perfmodel.model import WorkloadSplit
from repro.runtime import TrainingSession, VirtualTimeBackend


def sparkline(values, width=64) -> str:
    blocks = " .:-=+*#%@"
    values = np.asarray(values, dtype=float)
    if values.size > width:
        idx = np.linspace(0, values.size - 1, width).astype(int)
        values = values[idx]
    lo, hi = values.min(), values.max()
    span = (hi - lo) or 1.0
    return "".join(blocks[int((v - lo) / span * (len(blocks) - 1))]
                   for v in values)


def main() -> None:
    dataset = load_dataset("ogbn-papers100M", seed=0)
    cfg = TrainingConfig(model="gcn", minibatch_size=1024,
                         fanouts=(25, 10), hidden_dim=256, seed=3)
    session = TrainingSession(dataset, cfg,
                              ABLATION_PRESETS["hybrid_drm_tfp"],
                              hyscale_cpu_gpu_platform(4),
                              full_scale=True, profile_probes=3)

    # Sabotage the compile-time mapping: accelerators take everything,
    # the CPU trainer idles, the loader gets almost no threads.
    session.split = WorkloadSplit(
        cpu_targets=0, accel_targets=(1280,) * 4,
        sample_threads=224, load_threads=16, train_threads=16)
    print("sabotaged split:", session.split)

    report = VirtualTimeBackend(session).simulate_epoch(iterations=150)
    iter_times = [st.iteration_time(True) * 1e3
                  for st in report.stage_history]
    print(f"\niteration time: first={iter_times[0]:.2f} ms "
          f"-> last={iter_times[-1]:.2f} ms "
          f"({iter_times[0] / iter_times[-1]:.2f}x recovered)")
    print("trend:", sparkline(iter_times))

    print("\nfinal split:", session.split)
    print("\nDRM decision stream (non-trivial only):")
    shown = 0
    for d in session.drm.decisions:
        if d.action == "none":
            continue
        print(f"  it {d.iteration:3d}: {d.action:14s} {d.detail} "
              f"[bottleneck={d.bottleneck}]")
        shown += 1
        if shown >= 20:
            print("  ...")
            break


if __name__ == "__main__":
    main()
