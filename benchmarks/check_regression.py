"""CI gate: compare a fresh bench run against its committed baseline.

Usage::

    python benchmarks/bench_kernels_micro.py --json current.json
    python benchmarks/check_regression.py \
        benchmarks/BENCH_kernels.json current.json

    python benchmarks/bench_serving.py --json current.json
    python benchmarks/check_regression.py \
        benchmarks/BENCH_serving.json current.json

The gate dispatches on the document's ``schema`` field; both inputs
must carry the same one. Two schemas are gated today.

``bench-kernels/v1``. The policy (documented in
``docs/benchmarks.md``) is deliberately machine-portable: absolute
times on a CI runner tell you little, but the *ratio* between the two
tiers measured back-to-back on the same machine is stable, so the
primary assertions are speedup-based:

* every kernel in the baseline must be measured in the current run
  (a kernel silently dropped from the bench is a gate bypass);
* ``table_codes_int8`` — the load every accelerator trainer runs
  (the wire table's codes and scales gathered, the codes cast) — must
  keep a **hard >= 2.0x** speedup over the reference gather → quantize
  composition (machine-independent);
* ``train_backward_sage`` — the model's training step against the
  full-chain backward that also computes the never-read
  input-feature gradient — must keep a **hard >= 1.15x** (its
  baseline ratio is ~1.4x, so the 60% slack below alone would still
  pass at 1.0x, i.e. with the dead work back);
* ``sample_neighbor`` — the neighbor sampler relabelling through its
  position map against the sort-relabel oracle, same targets, same RNG
  draws — must keep a **hard >= 2.0x** (a sort back in the relabel
  path lands it near 1.0x);
* every kernel's speedup must stay within ``--speedup-slack`` (default
  0.6) of its baseline speedup — a fast-tier regression shows up as
  the ratio collapsing even when both absolute times drift;
* every kernel's absolute fast-tier time must stay under
  ``--time-slack`` (default 3.0) times the baseline's — a generous
  cross-machine allowance that still catches order-of-magnitude
  accidents (e.g. a fallback to the reference implementation).

``bench-serving/v1``. Again machine-portable by construction: the
latency budget, the coalesce window, and the admission bound are all
*configured*, so "accepted p99 within the budget" holds on any
machine unless the serving plane itself regresses. The assertions:

* every baseline scenario must be measured in the current run;
* every scenario's accepted p99 must stay within the document's
  configured latency budget (hard, machine-independent);
* every scenario must complete every request it accepted, and shed
  only typed reasons;
* scenarios the baseline sheds in (rate > 5%) must still shed in the
  current run — an overload scenario that stops shedding means the
  bounded queue or credit gate silently stopped gating;
* every scenario's completed-request throughput must retain
  ``--throughput-slack`` (default 0.2) of the baseline's — generous
  enough for any CI runner, tight enough to catch the serving loop
  degrading to one request per batch.

Exit status 0 when every check passes, 1 with a report otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

#: The kernels whose speedup has a hard floor regardless of baseline
#: (name -> minimum acceptable fast-vs-reference ratio).
HARD_FLOORS = {"table_codes_int8": 2.0,
               "train_backward_sage": 1.15,
               "sample_neighbor": 2.0}


def compare(baseline: dict, current: dict, *,
            speedup_slack: float = 0.6,
            time_slack: float = 3.0) -> list[str]:
    """All gate violations of ``current`` vs ``baseline`` (empty list
    when the gate passes)."""
    problems: list[str] = []
    for doc, label in ((baseline, "baseline"), (current, "current")):
        if doc.get("schema") != "bench-kernels/v1":
            problems.append(
                f"{label}: unknown schema {doc.get('schema')!r} "
                "(expected bench-kernels/v1)")
    if problems:
        return problems

    base_kernels = baseline["kernels"]
    cur_kernels = current["kernels"]
    for name, base in base_kernels.items():
        cur = cur_kernels.get(name)
        if cur is None:
            problems.append(f"{name}: missing from the current run "
                            "(baseline kernels must all be measured)")
            continue
        floor = HARD_FLOORS.get(name)
        if floor is not None and cur["speedup"] < floor:
            problems.append(
                f"{name}: speedup {cur['speedup']:.2f}x below the "
                f"hard floor {floor:.2f}x")
        want = base["speedup"] * speedup_slack
        if cur["speedup"] < want:
            problems.append(
                f"{name}: speedup {cur['speedup']:.2f}x below "
                f"{speedup_slack:.0%} of baseline "
                f"{base['speedup']:.2f}x")
        limit = base["fast_s"] * time_slack
        if cur["fast_s"] > limit:
            problems.append(
                f"{name}: fast tier {cur['fast_s'] * 1e3:.3f} ms "
                f"exceeds {time_slack:.1f}x baseline "
                f"{base['fast_s'] * 1e3:.3f} ms")
    return problems


#: Shed reasons the serving plane is allowed to emit (mirrors
#: ``repro.serving.SHED_REASONS`` minus ``"failed"``, which the
#: accepted == completed check already catches; duplicated so the gate
#: stays a dependency-free script).
SERVING_SHED_REASONS = ("queue_full", "no_credit", "closed", "invalid")

#: Baseline shed rate above which a scenario counts as an overload
#: scenario whose shedding must reproduce.
SERVING_SHED_FLOOR = 0.05


def compare_serving(baseline: dict, current: dict, *,
                    throughput_slack: float = 0.2) -> list[str]:
    """All serving-gate violations of ``current`` vs ``baseline``
    (empty list when the gate passes)."""
    problems: list[str] = []
    for doc, label in ((baseline, "baseline"), (current, "current")):
        if doc.get("schema") != "bench-serving/v1":
            problems.append(
                f"{label}: unknown schema {doc.get('schema')!r} "
                "(expected bench-serving/v1)")
    if problems:
        return problems

    budget_ms = current["latency_budget_s"] * 1e3
    for name, base in baseline["scenarios"].items():
        cur = current["scenarios"].get(name)
        if cur is None:
            problems.append(f"{name}: missing from the current run "
                            "(baseline scenarios must all be measured)")
            continue
        if cur["latency_p99_ms"] > budget_ms:
            problems.append(
                f"{name}: accepted p99 {cur['latency_p99_ms']:.1f} ms "
                f"exceeds the {budget_ms:.0f} ms latency budget")
        if cur["completed"] != cur["accepted"]:
            problems.append(
                f"{name}: {cur['accepted'] - cur['completed']} "
                "accepted requests never completed")
        untyped = sorted(set(cur["shed"]) - set(SERVING_SHED_REASONS))
        if untyped:
            problems.append(f"{name}: untyped shed reasons {untyped}")
        if base["shed_rate"] > SERVING_SHED_FLOOR \
                and sum(cur["shed"].values()) == 0:
            problems.append(
                f"{name}: baseline sheds {base['shed_rate']:.0%} but "
                "the current run sheds nothing — the admission/credit "
                "gate stopped gating")
        want = base["throughput_rps"] * throughput_slack
        if cur["throughput_rps"] < want:
            problems.append(
                f"{name}: throughput {cur['throughput_rps']:.0f} rps "
                f"below {throughput_slack:.0%} of baseline "
                f"{base['throughput_rps']:.0f} rps")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate a bench JSON run (bench-kernels/v1 or "
                    "bench-serving/v1) against the committed baseline "
                    "(see docs/benchmarks.md for the policy)")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly measured JSON")
    parser.add_argument("--speedup-slack", type=float, default=0.6,
                        help="minimum fraction of the baseline speedup "
                             "each kernel must retain (default 0.6)")
    parser.add_argument("--time-slack", type=float, default=3.0,
                        help="maximum multiple of the baseline "
                             "fast-tier time allowed (default 3.0)")
    parser.add_argument("--throughput-slack", type=float, default=0.2,
                        help="minimum fraction of the baseline serving "
                             "throughput each scenario must retain "
                             "(default 0.2)")
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.current) as fh:
        current = json.load(fh)

    schema = baseline.get("schema")
    if schema == "bench-serving/v1":
        problems = compare_serving(
            baseline, current, throughput_slack=args.throughput_slack)
        for name in sorted(baseline.get("scenarios", {})):
            cur = current.get("scenarios", {}).get(name)
            if cur:
                shed = sum(cur["shed"].values())
                print(f"{name:>10}: p99 {cur['latency_p99_ms']:7.2f} ms"
                      f"  {cur['throughput_rps']:7.0f} rps"
                      f"  shed {shed}")
        label = "serving-bench"
        count = f"{len(baseline.get('scenarios', {}))} scenarios"
    else:
        problems = compare(baseline, current,
                           speedup_slack=args.speedup_slack,
                           time_slack=args.time_slack)
        for name, base in sorted(baseline.get("kernels", {}).items()):
            cur = current.get("kernels", {}).get(name)
            if cur:
                print(f"{name:>22}: fast {cur['fast_s'] * 1e3:8.3f} ms"
                      f"  reference {cur['reference_s'] * 1e3:8.3f} ms"
                      f"  speedup {cur['speedup']:5.2f}x"
                      f"  (baseline {base['fast_s'] * 1e3:.3f} /"
                      f" {base['reference_s'] * 1e3:.3f} ms)")
        label = "kernel-bench"
        count = f"{len(baseline.get('kernels', {}))} kernels"
    if problems:
        print(f"\n{label} gate FAILED:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print(f"\n{label} gate passed ({count})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
