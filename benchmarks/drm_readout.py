"""DRM on against DRM off: epoch time, heap churn and the end split.

Usage::

    python benchmarks/drm_readout.py                   # train-hybrid
    python benchmarks/drm_readout.py --fixture train-hybrid --seed 0 \
        --backend pipelined --pairs 6
    python benchmarks/drm_readout.py --smoke           # tiny graph

In this one interpreter (under the benchmark's pinned BLAS
environment) the script builds the ``bench_e2e.training`` fixture's
dataset once, then runs pairs of runs: one with the fixture's system
config ("DRM on") and one with ``drm=False``, the DRM-on run first in
even pairs and second in odd ones. Each run builds a fresh session and
backend on ``--backend`` (the fixture's plane by default), discards
3 warm epochs and times 8. Per run it prints the median epoch wall
(ms), the minor page faults and system CPU ms per timed epoch (from
``getrusage(RUSAGE_SELF)`` around the timed epochs, so a process
plane's workers are not included) and the workload split at the end
(CPU targets, then each accelerator's). Then a median row per side,
and the pairs DRM won with the median per-pair gain. This is a
readout, not a metric: no gate reads it, and it changes nothing under
``bench_e2e/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Epochs each run discards, then times.
WARM_EPOCHS, TIMED_EPOCHS = 3, 8
HEADER = ("pair", "drm", "epoch_ms", "minflt", "sys_ms", "split")


def row(*cells) -> str:
    return " ".join(f"{c:>10.1f}" if isinstance(c, float) else f"{c!s:>10}"
                    for c in cells[:-1]) + f"  {cells[-1]}"


def one_run(fx, dataset, seed: int, smoke: bool, drm: bool,
            backend: str):
    """``(epoch ms, minor faults / epoch, system ms / epoch, split)``
    of one run on a fresh session and backend."""
    from bench_e2e import harness, training
    from repro.runtime import build_backend
    system = dict(fx.system) if drm else dict(fx.system, drm=False)
    fx = dataclasses.replace(fx, system=system)
    session = training.make_session(fx, dataset, seed, smoke)
    with build_backend(backend, session) as plane:
        for _ in range(WARM_EPOCHS):
            plane.run_epoch()
        harness.quiesce()
        before = resource.getrusage(resource.RUSAGE_SELF)
        walls = []
        for _ in range(TIMED_EPOCHS):
            start = time.perf_counter()
            plane.run_epoch()
            walls.append(time.perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_SELF)
    split = session.split
    return (statistics.median(walls) * 1e3,
            (after.ru_minflt - before.ru_minflt) / TIMED_EPOCHS,
            (after.ru_stime - before.ru_stime) * 1e3 / TIMED_EPOCHS,
            "/".join(map(str, (split.cpu_targets, *split.accel_targets))))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--fixture", default="train-hybrid")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend",
                        help="registry name (default: the fixture's)")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--smoke", action="store_true",
                        help="the fixture's tiny graph (seconds)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench_e2e.harness import PINNED_ENV
    os.environ.update(PINNED_ENV)     # before NumPy loads, as the benchmark
    from bench_e2e import training
    fx = training.FIXTURES[args.fixture]
    if not fx.platform_gpus or not fx.system.get("hybrid", True):
        raise SystemExit(f"{args.fixture}: DRM needs a hybrid fixture "
                         "with a platform")
    backend = args.backend or fx.backend
    dataset = training.make_dataset(fx, args.seed, args.smoke)
    print(row(*HEADER), flush=True)
    runs = {True: [], False: []}
    for pair in range(args.pairs):
        for drm in ((True, False) if pair % 2 == 0 else (False, True)):
            gc.collect()
            runs[drm].append(one_run(fx, dataset, args.seed, args.smoke,
                                     drm, backend))
            print(row(pair, "on" if drm else "off", *runs[drm][-1]),
                  flush=True)
    for drm in (True, False):
        columns = list(zip(*runs[drm]))[:3]
        print(row("median", "on" if drm else "off",
                  *map(statistics.median, columns), "-"))
    gains = [(off[0] - on[0]) / off[0]
             for on, off in zip(runs[True], runs[False])]
    wins = sum(g > 0 for g in gains)
    print(f"DRM on faster in {wins} of {len(gains)} pairs; median gain "
          f"{100 * statistics.median(gains):.1f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main())
