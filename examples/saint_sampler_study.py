#!/usr/bin/env python
"""Sampler study: neighbor sampling vs the GraphSAINT family.

HyScale-GNN's Mini-batch Sampler component is algorithm-pluggable (paper
§III-A cites both GraphSAGE [2] and GraphSAINT [29]). This example trains
the same model under four samplers on the same scaled dataset and
compares (a) learning behaviour and (b) the batch shapes that drive the
timing model — subgraph samplers produce denser, smaller-|V^0| batches,
which shifts the pipeline bottleneck away from PCIe.

Run:  python examples/saint_sampler_study.py
"""

from __future__ import annotations

import numpy as np

from repro.config import layer_dims
from repro.graph.datasets import load_dataset
from repro.nn import Adam, build_model, softmax_cross_entropy
from repro.sampling import (
    NeighborSampler,
    SaintEdgeSampler,
    SaintNodeSampler,
    SaintRWSampler,
)


def train_with(sampler, dataset, dims, iterations=25, lr=5e-3,
               seed=0) -> tuple[list[float], list]:
    model = build_model("sage", dims, seed=seed)
    opt = Adam(model, lr=lr)
    degrees = dataset.graph.out_degrees
    losses, shapes = [], []
    batches = iter(sampler.epoch_batches(512, seed=seed + 1))
    for _ in range(iterations):
        try:
            mb = next(batches)
        except StopIteration:
            batches = iter(sampler.epoch_batches(512, seed=seed + 2))
            mb = next(batches)
        x0 = dataset.features[mb.input_nodes]
        labels = dataset.labels[mb.targets]
        model.zero_grad()
        logits = model.forward(mb, x0, degrees)
        loss, dl = softmax_cross_entropy(logits, labels)
        model.backward(dl)
        opt.step()
        losses.append(loss)
        shapes.append(mb.stats())
    return losses, shapes


def main() -> None:
    dataset = load_dataset("ogbn-products", scale=1 / 512, seed=0)
    dims = layer_dims(dataset.spec.feature_dim, 64,
                      dataset.spec.num_classes, 2)
    f0 = dataset.spec.feature_dim
    ids = dataset.train_ids

    samplers = {
        "neighbor (25,10)": NeighborSampler(
            dataset.graph, ids, (25, 10), f0, seed=1),
        "SAINT-node": SaintNodeSampler(dataset.graph, ids, 2, f0,
                                       seed=2),
        "SAINT-edge": SaintEdgeSampler(dataset.graph, ids, 2, f0,
                                       seed=3),
        "SAINT-walk": SaintRWSampler(dataset.graph, ids, 2, f0,
                                     seed=4, walk_length=3),
    }

    print(f"{'sampler':18s} {'loss[0]':>8s} {'loss[-1]':>9s} "
          f"{'|V0|':>7s} {'E/batch':>8s} {'featKB':>7s}")
    for name, sampler in samplers.items():
        losses, shapes = train_with(sampler, dataset, dims)
        v0 = np.mean([s.num_input_nodes for s in shapes])
        e = np.mean([s.total_edges for s in shapes])
        kb = np.mean([s.input_feature_bytes for s in shapes]) / 1e3
        print(f"{name:18s} {losses[0]:8.3f} {np.mean(losses[-5:]):9.3f} "
              f"{v0:7.0f} {e:8.0f} {kb:7.0f}")

    print("\nSubgraph samplers load far fewer input features per "
          "trained edge,\nwhich is why the Sampler component is "
          "pluggable in the system design.")


if __name__ == "__main__":
    main()
