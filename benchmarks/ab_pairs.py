"""A/B pairs of the end-to-end benchmark: a parent checkout against a
change.

Usage::

    python benchmarks/ab_pairs.py PARENT_DIR CHANGE_DIR \
        --workload train-hybrid --seed 0 --pairs 10

Each run is ``python3 bench_e2e/run.py --workload W --seed S`` inside
one checkout, so each side measures itself with its own benchmark
files at the run length ``BENCHMARK.json`` sets. Pair ``i`` runs the
parent first when ``i`` is even and the change first when it is odd.
Every run is listed with its end-to-end metrics; then, per metric, each
side's median and quartiles, the pair wins and two verdicts:

* **claim** — the change wins at least nine tenths of the pairs (ties
  count for neither side) and its median beats the parent's by more
  than the distance between the parent's quartiles;
* **no regression** — the change's median is worse than the parent's
  by no more than the metric's bound in the parent's
  ``BENCHMARK.json``. It reads ``unresolved`` where either side's
  spread (inter-quartile distance over median) is wider than that
  bound, unless every change run beats every parent run.

Each whole pair also prints its change − parent delta per metric, and
the summary gives the deltas' median and quartiles: a paired readout
that a host drifting between pairs moves less than it moves either
side's own spread. The verdicts do not read it.

A run that fails or reports failed ops is listed and counted against
its side, and its pair leaves both series, so the pairs compared are
always runs made back to back. Wins still count out of every pair run:
a failed pair is a pair the change did not win. The exit code is 0 when
no run failed and every metric reads no regression ``ok``, else 1. The
script lives outside ``bench_e2e/`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: A run that takes longer is killed and counted as failed (the
#: benchmark kills its own worker at 170 s).
RUN_TIMEOUT_S = 240


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, by the quantile rule the benchmark's own
    spread uses; a single value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return q1, mid, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance over the median (0 for one value)."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def pair_wins(parent: list[float], change: list[float],
              better: str) -> tuple[int, int]:
    """``(change wins, parent wins)`` over the pairs; ties count for
    neither."""
    won = sum(_beats(c, p, better) for p, c in zip(parent, change))
    lost = sum(_beats(p, c, better) for p, c in zip(parent, change))
    return won, lost


def pair_deltas(parent: list[float], change: list[float]) -> list[float]:
    """Each pair's ``change - parent``."""
    return [c - p for p, c in zip(parent, change)]


def claim_verdict(parent: list[float], change: list[float],
                  better: str, pairs: int | None = None) -> bool:
    """A gain may be claimed: wins in at least nine tenths of the
    ``pairs`` run (default: the pairs given), and a median gap in the
    better direction wider than the parent's inter-quartile
    distance."""
    won, _ = pair_wins(parent, change, better)
    q1, parent_mid, q3 = quartiles(parent)
    gain = parent_mid - statistics.median(change)
    if better != "lower":
        gain = -gain
    return won >= 0.9 * (pairs or len(parent)) and gain > q3 - q1


def regression_verdict(parent: list[float], change: list[float],
                       better: str, bound: float) -> str:
    """``ok``, ``regressed`` or ``unresolved`` against ``bound``, the
    largest worsening of the median allowed, as a share of the
    parent's median."""
    if all(_beats(c, p, better) for c in change for p in parent):
        return "ok"
    parent_mid = statistics.median(parent)
    worse = statistics.median(change) - parent_mid
    if better != "lower":
        worse = -worse
    if worse > bound * abs(parent_mid):
        return "regressed"
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    return "ok"


def run_once(checkout: Path, workload: str, seed: int) -> dict | None:
    """One benchmark run in ``checkout``: its result line, or ``None``
    when the run failed to produce one."""
    try:
        proc = subprocess.run(
            [sys.executable, "bench_e2e/run.py", "--workload", workload,
             "--seed", str(seed)],
            cwd=checkout, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    failed = {side: 0 for side in sides}
    print(f"# {args.workload} seed {args.seed}, {args.pairs} pairs")
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else \
            ("change", "parent")
        results = {side: run_once(sides[side], args.workload, args.seed)
                   for side in order}
        rows = {}
        for side in order:
            res = results[side]
            if res is None or not res["correct"] or res["failed"]:
                failed[side] += 1
                why = "no result line" if res is None else \
                    f"{res['failed']} of {res['attempted']} ops failed"
                print(f"pair {i} {side}: FAILED ({why})")
                continue
            rows[side] = {m["name"]: res["metrics"][m["name"]]["value"]
                          for m in metrics}
            print(f"pair {i} {side}: ops {res['attempted']} failed "
                  f"{res['failed']} " + " ".join(
                      f"{k}={_fmt(v)}" for k, v in rows[side].items()),
                  flush=True)
        if len(rows) == len(sides):     # a pair counts whole or not at all
            for side, row in rows.items():
                for name, v in row.items():
                    values[side][name].append(v)
            print(f"pair {i} delta: " + " ".join(
                f"{k}={_fmt(rows['change'][k] - rows['parent'][k])}"
                for k in rows["parent"]))

    ok = not any(failed.values())
    print(f"\nfailed runs: parent {failed['parent']}, "
          f"change {failed['change']}")
    print(f"{'metric':<16} {'parent q1/med/q3':>26} "
          f"{'change q1/med/q3':>26} {'wins':>7}  claim  no-regression")
    for m in metrics:
        par, chg = values["parent"][m["name"]], values["change"][m["name"]]
        if not par:
            print(f"{m['name']:<16} no complete pair")
            ok = False
            continue
        won, _ = pair_wins(par, chg, m["better"])
        verdict = regression_verdict(par, chg, m["better"], m["bound"])
        claimed = claim_verdict(par, chg, m["better"], args.pairs)
        ok = ok and verdict == "ok"
        print(f"{m['name']:<16} "
              f"{'/'.join(_fmt(x) for x in quartiles(par)):>26} "
              f"{'/'.join(_fmt(x) for x in quartiles(chg)):>26} "
              f"{won:>3}/{args.pairs:<3}  "
              f"{'yes' if claimed else 'no':<5}  "
              f"{verdict} (bound {m['bound']:.0%})")
    print(f"\n{'pair delta (change - parent)':<34} {'q1/med/q3':>26}")
    for m in metrics:
        deltas = pair_deltas(values["parent"][m["name"]],
                             values["change"][m["name"]])
        if deltas:
            print(f"delta {m['name']:<28} "
                  f"{'/'.join(_fmt(x) for x in quartiles(deltas)):>26}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
