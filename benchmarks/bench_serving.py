"""Open-loop serving benchmark — latency, throughput, typed shedding.

Three scenarios against one :class:`~repro.serving.ServingSession`
configuration (paper-stack sampler + gather from the int8 wire table
over the scaled ogbn-products workload):

* ``nominal`` — an offered rate comfortably inside capacity: nothing
  sheds, every request completes, accepted p99 stays inside the
  latency budget;
* ``overload`` — an offered rate far beyond capacity against a small
  bounded queue: the session **sheds typed** (``queue_full``) rather
  than queueing unboundedly, and — the property the admission bound
  exists to buy — the requests it *does* accept still finish inside
  the latency budget;
* ``credits`` — two tenants, one throttled by a tight credit bucket:
  the throttled tenant sheds ``no_credit`` while the other is
  unaffected, and the credit ledger conserves (admitted work never
  exceeds burst + refill).

Script mode (``--json PATH``) writes a ``bench-serving/v1`` document;
``benchmarks/check_regression.py`` gates a fresh run against the
committed ``benchmarks/BENCH_serving.json`` baseline (policy in
``docs/benchmarks.md``). The run's own hard assertions (shedding is
typed, accepted p99 within budget, accepted == completed) execute on
every invocation — the CI leg is additionally wrapped in a hard
timeout, and the load generator's drain phase carries its own grace
deadline, so a wedged run fails loudly.
"""

from __future__ import annotations

import json

from repro.bench.experiments import dataset, paper_config
from repro.bench.harness import ExperimentResult
from repro.config import SystemConfig
from repro.serving import (
    SHED_REASONS,
    LoadSpec,
    ServingConfig,
    ServingSession,
    run_open_loop,
)

#: The latency contract every scenario is held to (generous on
#: purpose: the gate must hold on a loaded CI runner, and the
#: coalesce window — budget/10 — plus the bounded backlog keep
#: realized p99 an order of magnitude under it on any machine).
LATENCY_BUDGET_S = 0.25

SCHEMA = "bench-serving/v1"

#: name -> (serving-config overrides, load spec). Rates are requests/s
#: of 4-target requests; the nominal rate is ~10x under what one
#: micro-batch pipeline sustains on a slow runner, the overload rate
#: several times over what a fast one completes, so against the
#: 8-request pending bound most of it sheds ``queue_full``.
SCENARIOS: dict[str, tuple[dict, LoadSpec]] = {
    "nominal": (
        dict(max_pending_requests=64),
        LoadSpec(rate_rps=150.0, duration_s=1.0,
                 targets_per_request=4, seed=5),
    ),
    "overload": (
        dict(max_pending_requests=8),
        LoadSpec(rate_rps=20000.0, duration_s=0.5,
                 targets_per_request=4, seed=6),
    ),
    "credits": (
        dict(max_pending_requests=64,
             credit_rate_targets_per_s=120.0,
             credit_burst_targets=16),
        LoadSpec(rate_rps=300.0, duration_s=0.75,
                 targets_per_request=4,
                 tenants=("paid", "throttled"), seed=7),
    ),
}


def _serve(overrides: dict, spec: LoadSpec):
    cfg = paper_config("sage", minibatch_size=64, fanouts=(4, 3),
                       hidden_dim=16, seed=7)
    config = ServingConfig(latency_budget_s=LATENCY_BUDGET_S,
                           coalesce_window_s=LATENCY_BUDGET_S / 10.0,
                           max_batch_targets=32, max_depth=2,
                           device="accel", **overrides)
    with ServingSession(dataset("ogbn-products"), cfg,
                        SystemConfig(transfer_precision="int8"),
                        config=config) as session:
        result = run_open_loop(session, spec)
    return result


def run_bench() -> tuple[ExperimentResult, dict]:
    results = {}
    for name, (overrides, spec) in SCENARIOS.items():
        results[name] = _serve(overrides, spec)

    budget_ms = LATENCY_BUDGET_S * 1e3
    # --- the assertions the CI leg gates on -------------------------
    for name, res in results.items():
        rep = res.report
        assert rep.completed == rep.accepted, \
            f"{name}: {rep.accepted - rep.completed} accepted " \
            f"requests never completed"
        assert set(rep.shed) <= set(SHED_REASONS), \
            f"{name}: untyped shed reasons {sorted(rep.shed)}"
        p99 = rep.latency_percentile(99)
        assert p99 <= LATENCY_BUDGET_S, \
            f"{name}: accepted p99 {p99 * 1e3:.1f} ms blows the " \
            f"{budget_ms:.0f} ms budget"
    assert results["nominal"].report.shed_total == 0, \
        "nominal load must not shed"
    assert results["overload"].report.shed.get("queue_full", 0) > 0, \
        "overload must shed queue_full"
    credits = results["credits"].report
    assert credits.shed.get("no_credit", 0) > 0, \
        "throttled tenant must shed no_credit"
    for tenant, row in credits.credit_ledger.items():
        assert row["spent_targets"] <= row["burst_targets"] \
            + row["refilled_targets"] + 1e-6, \
            f"credit conservation violated for tenant {tenant!r}"

    table = ExperimentResult(
        title=f"open-loop serving - budget {budget_ms:.0f} ms, "
              "ogbn-products (scaled), int8 transfer",
        columns=["scenario", "offered", "accepted", "completed",
                 "shed", "p50 (ms)", "p99 (ms)", "req/s", "targets/s"])
    doc = {"schema": SCHEMA, "latency_budget_s": LATENCY_BUDGET_S,
           "scenarios": {}}
    for name, res in results.items():
        rep = res.report
        shed = ", ".join(f"{r}:{n}" for r, n in sorted(rep.shed.items())) \
            or "-"
        table.add_row(name, rep.offered, rep.accepted, rep.completed,
                      shed, rep.latency_percentile(50) * 1e3,
                      rep.latency_percentile(99) * 1e3,
                      res.throughput_rps, res.targets_per_s)
        doc["scenarios"][name] = res.to_dict()
    table.notes.append(
        "every scenario asserts: typed shed only, accepted == "
        "completed, accepted p99 within the budget")
    return table, doc


def test_serving_smoke(show, benchmark):
    table, doc = benchmark.pedantic(run_bench, iterations=1, rounds=1)
    show(table.render())
    # run_bench's internal assertions are the gate; re-check the
    # rendered evidence made it into the artifact.
    assert set(doc["scenarios"]) == set(SCENARIOS)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Open-loop serving benchmark (micro-batched "
                    "inference: latency percentiles, throughput, "
                    "typed shedding)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the bench-serving/v1 document "
                             "(CI gates it via check_regression.py)")
    args = parser.parse_args()
    table, doc = run_bench()
    print(table.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
