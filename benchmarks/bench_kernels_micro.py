"""Micro-benchmarks of the hot numeric paths.

These are genuine pytest-benchmark measurements of the library's own
compute kernels (sampling, aggregation, forward/backward) — the
quantities that bound functional-mode throughput of the reproduction
itself.

Since the kernel registry (:mod:`repro.kernels`) landed, the file also
measures the **fast tier against the reference oracle** on the same
products-scale fixture, two ways:

* pytest-benchmark tests parametrized by tier (interactive numbers);
* a script mode (``python benchmarks/bench_kernels_micro.py --json
  out.json``) that emits the machine-readable ``bench-kernels/v1``
  document the CI regression gate compares against the committed
  ``benchmarks/BENCH_kernels.json`` baseline via
  ``benchmarks/check_regression.py`` (policy in
  ``docs/benchmarks.md``).
"""

import time

import numpy as np
import pytest

from repro.config import layer_dims
from repro.errors import SamplingError
from repro.graph.datasets import load_dataset
from repro.kernels import fast, reference
from repro.nn.aggregators import SparseAggregator
from repro.nn.loss import softmax_cross_entropy
from repro.nn.models import build_model
from repro.sampling.base import LayerBlock, MiniBatch
from repro.sampling.neighbor import NeighborSampler, _sample_capped_neighbors


@pytest.fixture(scope="module")
def ds():
    return load_dataset("ogbn-products", scale=1 / 512, seed=0)


@pytest.fixture(scope="module")
def sampler(ds):
    return NeighborSampler(ds.graph, np.arange(ds.graph.num_vertices),
                           (15, 10), ds.spec.feature_dim, seed=1)


@pytest.fixture(scope="module")
def batch(sampler):
    return sampler.sample(np.arange(512))


def test_bench_neighbor_sampling(benchmark, sampler):
    rng = np.random.default_rng(0)

    def draw():
        targets = rng.choice(4000, size=512, replace=False)
        return sampler.sample(targets)

    mb = benchmark(draw)
    assert mb.targets.size == 512


def test_bench_sparse_aggregation(benchmark, batch):
    blk = batch.blocks[0]
    h = np.random.default_rng(1).standard_normal((blk.num_src, 100))
    agg = SparseAggregator(blk)
    out = benchmark(lambda: agg.forward(h))
    assert out.shape == (blk.num_dst, 100)


def full_chain_step(model, batch, x0, global_degrees, labels):
    """One training step through the *public layer API*, carrying the
    input gradient through every layer, the input-side one included.

    ``GNNModel.backward`` stops at the first layer's ``dW``/``db``
    (nothing reads the feature gradient); this full chain is the
    reference showing that changes no accumulated gradient bit
    (``tests/unit/test_nn.py``) and pricing what it saves (the gated
    ``train_backward_sage`` row). Returns ``(loss, dh0)``.
    """
    h, caches = np.asarray(x0, dtype=model.layers[0].linear.W.dtype), []
    for l, (layer, block) in enumerate(zip(model.layers, batch.blocks)):
        agg = layer.build_aggregator(block, batch.node_ids[l],
                                     batch.node_ids[l + 1],
                                     global_degrees)
        h, cache = layer.forward(agg, h)
        caches.append(cache)
    loss, grad = softmax_cross_entropy(h, labels)
    for layer, cache in zip(reversed(model.layers), reversed(caches)):
        grad = layer.backward(cache, grad)
    return loss, grad


# The sort-relabel oracle: how the sampler mapped global ids to local
# positions before its position map (``repro.sampling.base``). It is
# the reference of the gated ``sample_neighbor`` row, and the tests
# (``tests/unit/test_sampling.py``) pin the map to it array for array.

def union_preserving_order(base: np.ndarray,
                           extra: np.ndarray) -> np.ndarray:
    """Return ``base`` followed by the unique new elements of ``extra``
    in first-occurrence order (``base`` must be duplicate-free)."""
    if base.size == 0:
        return np.unique(extra)
    combined = np.concatenate([base, extra])
    _, first_idx = np.unique(combined, return_index=True)
    first_idx.sort()
    return combined[first_idx]


def local_index_of(global_ids: np.ndarray,
                   universe: np.ndarray) -> np.ndarray:
    """Positions of ``global_ids`` in the (unsorted) ``universe``, found
    by a stable sort and a binary search; raises if an id is missing."""
    order = np.argsort(universe, kind="stable")
    sorted_universe = universe[order]
    pos = np.searchsorted(sorted_universe, global_ids)
    if pos.size and (pos >= universe.size).any():
        raise SamplingError("id not present in universe")
    if pos.size and not np.array_equal(sorted_universe[pos], global_ids):
        raise SamplingError("id not present in universe")
    return order[pos]


class SortRelabelSampler(NeighborSampler):
    """:class:`NeighborSampler` relabelling each hop by sorting.

    Same RNG draws, same edge order: only the global → local relabel
    differs, so a twin built with the same arguments must produce
    array-identical batches.
    """

    def sample(self, target_ids: np.ndarray) -> MiniBatch:
        targets = np.asarray(target_ids, dtype=np.int64)
        if targets.size == 0:
            raise SamplingError("cannot sample an empty batch")
        if np.unique(targets).size != targets.size:
            raise SamplingError("target ids must be unique")
        node_lists, raw_edges, frontier = [targets], [], targets
        for fanout in self.fanouts:
            seg, neigh = _sample_capped_neighbors(
                self.graph.indptr, self.graph.indices, frontier, fanout,
                self._rng)
            prev = union_preserving_order(frontier, neigh)
            raw_edges.append((neigh, frontier[seg]))
            node_lists.append(prev)
            frontier = prev
        node_ids = tuple(reversed(node_lists))
        L = len(self.fanouts)
        blocks = []
        for h, (src_g, dst_g) in enumerate(raw_edges):
            src_layer, dst_layer = node_ids[L - 1 - h], node_ids[L - h]
            blocks.append(LayerBlock(
                src_local=local_index_of(src_g, src_layer),
                dst_local=local_index_of(dst_g, dst_layer),
                num_src=src_layer.size, num_dst=dst_layer.size))
        return MiniBatch(node_ids=node_ids, blocks=tuple(reversed(blocks)),
                         feature_dim=self.feature_dim)


@pytest.mark.parametrize("model_name", ["gcn", "sage"])
def test_bench_forward_backward(benchmark, ds, batch, model_name):
    dims = layer_dims(ds.spec.feature_dim, 128, ds.spec.num_classes, 2)
    model = build_model(model_name, dims, seed=0)
    x0 = ds.features[batch.input_nodes]
    labels = ds.labels[batch.targets]
    deg = ds.graph.out_degrees

    def step():
        model.zero_grad()
        logits = model.forward(batch, x0, deg)
        loss, dl = softmax_cross_entropy(logits, labels)
        model.backward(dl)
        return loss

    loss = benchmark(step)
    assert np.isfinite(loss)


# ---------------------------------------------------------------------------
# Kernel tiers: fast vs the reference oracle (the regression-gated set)
# ---------------------------------------------------------------------------

def _kernel_cases(ds, batch):
    """The gated kernel set: ``name -> (reference_fn, fast_fn)``.

    The fast variants allocate their destinations per call, as every
    load on a runtime path does — the comparison measures the deployed
    hot path (caches are warmed outside the timed calls).

    ``table_load_int8`` times the dequantized accelerator load
    (``StagePipeline.load``, and serving's ``prepare``): the batch's
    codes gathered from a wire table encoded once (outside the timed
    call), cast into a fresh destination and multiplied by their
    scales — against the reference gather → quantize composition.

    ``table_codes_int8`` times the load every accelerator trainer runs
    (the training lanes' and process workers' ``load_codes``): the
    codes and scales gathered from the same table, and the codes cast
    into a fresh destination, with no scale multiply (the model's
    input layer folds the scales) — against the same reference
    composition.

    ``train_backward_sage`` is the one row that is not a registry
    kernel: one GraphSAGE training step, :func:`full_chain_step`
    (input-feature gradient computed and dropped) against the model's
    own forward/backward (never computed) — the ratio is the dead work
    the model's backward leaves out, gated so it cannot creep back.

    ``sample_neighbor`` is the sampler's row: :class:`SortRelabelSampler`
    against :class:`NeighborSampler`, twins drawing the batch's targets
    in lockstep (every timed loop calls both sides equally often, so
    call ``k`` of each starts from the same RNG state).
    """
    twins = [cls(ds.graph, np.arange(ds.graph.num_vertices), (15, 10),
                 ds.spec.feature_dim, seed=1)
             for cls in (SortRelabelSampler, NeighborSampler)]
    targets = batch.targets
    feats, idx = ds.features, batch.input_nodes
    x0 = reference.gather(feats, idx)
    model = build_model("sage", layer_dims(
        ds.spec.feature_dim, 128, ds.spec.num_classes, 2), seed=0)
    labels, deg = ds.labels[batch.targets], ds.graph.out_degrees

    def model_step():
        logits = model.forward(batch, x0, deg)
        model.backward(softmax_cross_entropy(logits, labels)[1])

    codes, scales = fast.encode(feats, "int8")

    def oracle():
        return reference.quantize(reference.gather(feats, idx), "int8")

    def table_codes():
        # A trainer's int8 load: gather the codes and scales, then
        # cast the codes; the input layer folds the scales.
        return (fast.decode(fast.gather(codes, idx), feats.dtype),
                fast.gather(scales, idx))

    def table_load():
        # A dequantized load: the trainer's load, then the scale
        # multiply in place.
        rows, row_scales = table_codes()
        rows *= row_scales
        return rows

    return {
        "gather": (
            lambda: reference.gather(feats, idx),
            lambda: fast.gather(feats, idx)),
        "table_load_int8": (oracle, table_load),
        "table_codes_int8": (oracle, table_codes),
        "train_backward_sage": (
            lambda: full_chain_step(model, batch, x0, deg, labels),
            model_step),
        "sample_neighbor": (
            lambda: twins[0].sample(targets),
            lambda: twins[1].sample(targets)),
    }


@pytest.fixture(scope="module")
def kernel_cases(ds, batch):
    return _kernel_cases(ds, batch)


@pytest.mark.parametrize("tier", ["reference", "fast"])
def test_bench_gather_tier(benchmark, kernel_cases, tier):
    ref_fn, fast_fn = kernel_cases["gather"]
    fn = ref_fn if tier == "reference" else fast_fn
    out = benchmark(fn)
    np.testing.assert_array_equal(ref_fn(), out)


@pytest.mark.parametrize("tier", ["reference", "fast"])
def test_bench_table_load_int8_tier(benchmark, kernel_cases, tier):
    ref_fn, fast_fn = kernel_cases["table_load_int8"]
    fn = ref_fn if tier == "reference" else fast_fn
    out = benchmark(fn)
    np.testing.assert_array_equal(ref_fn(), out)


# ---------------------------------------------------------------------------
# Script mode: the bench-kernels/v1 document the CI gate consumes
# ---------------------------------------------------------------------------

def _best_of(fn, number: int, repeats: int) -> float:
    """Per-call seconds, best of ``repeats`` timed loops of ``number``
    calls (min is the standard noise-robust micro-bench statistic)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def run_kernel_bench(number: int = 20, repeats: int = 5) -> dict:
    """Measure every gated kernel on the products-scale fixture and
    return the ``bench-kernels/v1`` document (schema in
    ``docs/benchmarks.md``)."""
    ds = load_dataset("ogbn-products", scale=1 / 512, seed=0)
    sampler = NeighborSampler(ds.graph,
                              np.arange(ds.graph.num_vertices),
                              (15, 10), ds.spec.feature_dim, seed=1)
    batch = sampler.sample(np.arange(512))
    cases = _kernel_cases(ds, batch)

    doc = {
        "schema": "bench-kernels/v1",
        "fixture": {
            "dataset": "ogbn-products",
            "scale": "1/512",
            "store_rows": int(ds.features.shape[0]),
            "store_cols": int(ds.features.shape[1]),
            "store_dtype": str(ds.features.dtype),
            "batch_rows": int(batch.input_nodes.size),
            "block_edges": int(batch.blocks[0].num_edges),
        },
        "timing": {"number": number, "repeats": repeats,
                   "statistic": "best-of"},
        "kernels": {},
    }
    for name, (ref_fn, fast_fn) in cases.items():
        ref_fn(), fast_fn()                      # warm caches
        ref_s = _best_of(ref_fn, number, repeats)
        fast_s = _best_of(fast_fn, number, repeats)
        doc["kernels"][name] = {
            "reference_s": ref_s,
            "fast_s": fast_s,
            "speedup": ref_s / fast_s,
        }
    return doc


if __name__ == "__main__":
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="Kernel-tier micro-bench (fast vs reference); "
                    "emits the bench-kernels/v1 JSON the CI gate "
                    "compares against benchmarks/BENCH_kernels.json")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the bench-kernels/v1 document here "
                             "(default: stdout only)")
    parser.add_argument("--number", type=int, default=20,
                        help="calls per timed loop (default 20)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed loops per kernel; the best is "
                             "kept (default 5)")
    args = parser.parse_args()

    doc = run_kernel_bench(number=args.number, repeats=args.repeats)
    for kname, row in doc["kernels"].items():
        print(f"{kname:>22}: reference {row['reference_s'] * 1e3:8.3f} ms"
              f"  fast {row['fast_s'] * 1e3:8.3f} ms"
              f"  speedup {row['speedup']:5.2f}x")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
