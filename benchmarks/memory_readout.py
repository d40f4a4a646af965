"""Memory readout of the process planes: one row per process.

Usage::

    python benchmarks/memory_readout.py                # train-procs
    python benchmarks/memory_readout.py --fixture train-procs --seed 0
    python benchmarks/memory_readout.py --backend process_sampling
    python benchmarks/memory_readout.py --smoke        # tiny graph

For each process preset (every one by default, or ``--backend``) a
fresh interpreter builds the ``bench_e2e.training`` fixture's dataset,
session and backend and runs its warm-up epochs, exactly as the
benchmark's setup does (under its pinned BLAS environment), so the
pool is open. It then reads, for itself
(the parent) and each worker of the pool, ``VmHWM``, ``RssAnon`` and
``RssShmem`` from ``/proc/<pid>/status`` and ``Pss_Anon`` and
``Pss_Shmem`` from ``/proc/<pid>/smaps_rollup`` — its own processes
only — and closes the pool. One interpreter per preset keeps each
parent's high-water mark that preset's alone.

The RSS columns count a page in every process that maps it, as the
benchmark's ``peak_rss_mb`` does (the parent's ``VmHWM`` plus the
largest worker's); the PSS columns split a page shared by ``k``
processes ``1/k`` to each, so the ``sum`` row's PSS is the memory the
plane uses. Every figure is in MB (2^20 bytes). This is a readout, not
a metric: no gate reads it.
"""

from __future__ import annotations

import argparse
import dataclasses
import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The process presets, by registry name.
PRESETS = ("process", "process_sampling", "process_pipelined", "sharded")
#: ``(file under /proc/<pid>, field)`` per column, in column order.
COLUMNS = (("status", "VmHWM"), ("status", "RssAnon"),
           ("status", "RssShmem"), ("smaps_rollup", "Pss_Anon"),
           ("smaps_rollup", "Pss_Shmem"))
HEADER = ("backend", "role", "pid") + tuple(f for _, f in COLUMNS)


def read_kb(pid: int, name: str) -> dict[str, int]:
    """The ``Field: <n> kB`` lines of ``/proc/<pid>/<name>``."""
    fields = {}
    for line in Path(f"/proc/{pid}/{name}").read_text().splitlines():
        key, _, rest = line.partition(":")
        parts = rest.split()
        if len(parts) == 2 and parts[1] == "kB":
            fields[key] = int(parts[0])
    return fields


def readout(pid: int) -> list[float]:
    """One process's columns, in MB."""
    files = {name: read_kb(pid, name) for name in {f for f, _ in COLUMNS}}
    return [files[name][field] / 1024.0 for name, field in COLUMNS]


def row(backend, role, pid, *values) -> str:
    cells = " ".join(f"{v:>10.1f}" if isinstance(v, float) else f"{v:>10}"
                     for v in values)
    return f"{backend:<18} {role:<8} {pid!s:>7} {cells}"


def measure(fixture: str, backend: str, seed: int, smoke: bool) -> None:
    """Open ``backend``'s pool on ``fixture`` and print its rows."""
    from bench_e2e import harness, training
    fx = dataclasses.replace(training.FIXTURES[fixture], backend=backend)
    dataset = training.make_dataset(fx, seed, smoke)
    ledger = harness.Ledger()
    _, session, pool_backend, _ = training.fresh_backend(
        fx, dataset, seed, smoke, ledger)
    if not ledger.correct:
        raise SystemExit(f"{backend}: warm-up failed: {ledger.problems}")
    try:
        workers = sorted(p.pid for p in mp.active_children()
                         if p.name.startswith("repro-"))
        rows = [("parent", os.getpid())] + [
            (f"worker{i}", pid) for i, pid in enumerate(workers)]
        total = [0.0] * len(COLUMNS)
        for role, pid in rows:
            values = readout(pid)
            total = [t + v for t, v in zip(total, values)]
            print(row(backend, role, pid, *values))
        print(row(backend, "sum", "-", *total))
    finally:
        pool_backend.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--fixture", default="train-procs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", choices=PRESETS)
    parser.add_argument("--smoke", action="store_true",
                        help="the fixture's tiny graph (seconds)")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench_e2e.harness import PINNED_ENV
    os.environ.update(PINNED_ENV)     # before NumPy loads, as the benchmark
    if args.backend is not None:
        measure(args.fixture, args.backend, args.seed, args.smoke)
        return 0
    print(row(*HEADER), flush=True)
    for name in PRESETS:
        cmd = [sys.executable, __file__, "--fixture", args.fixture,
               "--seed", str(args.seed), "--backend", name]
        subprocess.run(cmd + ["--smoke"] * args.smoke, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
