"""Fig. 11 — impact of optimizations (ablation).

Baseline → hybrid(static) → +DRM → +TFP on the CPU-FPGA platform (as in
the paper) and additionally on the CPU-GPU platform, where the
propagation-bound regime gives DRM more room.
Paper (CPU-FPGA): up to 1.13x / 1.33x / 1.79x cumulative.
"""

import functools

import pytest

from repro.bench.experiments import run_ablation


@functools.lru_cache(maxsize=2)
def _result(kind: str):
    return run_ablation(platform_kind=kind)


def test_fig11_ablation_fpga(show, benchmark):
    res = benchmark.pedantic(lambda: _result("fpga"), iterations=1,
                             rounds=1)
    show(res.render())
    for row in res.rows:
        _, _, base, static, drm, tfp = row
        # TFP is the dominant optimization and the full stack always
        # beats the baseline (paper's headline).
        assert tfp > max(base, static, drm) * 0.999
        assert tfp > 1.2
        # The DRM revert guard bounds any regression vs static.
        assert drm > static * 0.90


def test_fig11_ablation_gpu(show, benchmark):
    benchmark(lambda: _result("gpu"))
    res = _result("gpu")
    show(res.render())
    for row in res.rows:
        _, _, base, static, drm, tfp = row
        assert tfp >= max(static, drm) * 0.999
        # Propagation-bound platform: hybrid training itself pays.
        assert static > 0.95


def test_fig11_tfp_gain_is_largest_single_step(benchmark):
    benchmark(lambda: _result("fpga"))
    """The paper attributes the largest jump to TFP when loading or
    transfer bottlenecks — verify on the FPGA platform."""
    res = _result("fpga")
    gains = []
    for row in res.rows:
        _, _, base, static, drm, tfp = row
        gains.append(tfp / drm)
    assert max(gains) > 1.5


def _smoke(backend: str):
    """Quick ablation pass on one dataset — the CI backend smoke.

    The virtual backend sweeps a shortened timing simulation; live
    backends (threaded, process, process_sampling, pipelined,
    process_pipelined, sharded) run the same four preset sessions
    functionally —
    threads behind the GIL, worker processes over the shared-memory
    feature store (sampling in the parent or, for ``process_sampling``
    and ``process_pipelined``, in the workers), the overlapped
    producer/consumer pipeline, or workers preparing dealt-ahead
    batches (a scaled-down config keeps each within seconds). ``run_ablation``
    builds one backend per preset session and closes it (``with``)
    before the next, so at most one worker pool + store is ever open.
    """
    overrides = dict(minibatch_size=128, fanouts=(5, 5), hidden_dim=32)
    return run_ablation(platform_kind="fpga", num_accels=2,
                        datasets=("ogbn-products",), backend=backend,
                        iterations=4,
                        config_overrides=None
                        if backend == "virtual" else overrides)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Fig. 11 ablation smoke (see pytest for the full "
                    "figure reproduction)")
    parser.add_argument("--backend",
                        choices=("virtual", "threaded", "process",
                                 "process_sampling", "pipelined",
                                 "process_pipelined", "sharded"),
                        default="virtual",
                        help="execution backend the presets run on")
    parser.add_argument("--smoke", action="store_true",
                        help="short single-dataset pass")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="additionally write the result table as "
                             "JSON (CI archives these as artifacts)")
    args = parser.parse_args()
    res = _smoke(args.backend) if args.smoke \
        else run_ablation(backend=args.backend)
    print(res.render())
    if args.json:
        res.write_json(args.json)
