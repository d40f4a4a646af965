"""Multi-session resource-control smoke — the allocator under contention.

Two :class:`~repro.serving.ServingSession` instances share one
:class:`~repro.runtime.NodeAllocator` with a deliberately tight depth
budget; each starts with a backlog of sealed micro-batches, and the
two are stepped in turn. The short session drains first and closes.
The smoke proves the arbitration end to end:

* both sessions hold grants **at the same time** (every register in
  the audit trail precedes every release), and an allocator snapshot
  is taken before every step;
* while contending, each session's cap is the equal share
  ``budget // 2``, not its configured ``max_depth``, and no step
  executes more batches than that;
* the moment the short session closes its share is **released**: the
  survivor's live cap rises to its ``max_depth`` at its very next
  step, and after both close the allocator is clean — zero active
  sessions, full budget available, a balanced register/release audit
  trail.

Training backends hold their session's fixed window and register
nothing, so serving sessions are the allocator's only tenants.

Script mode (`--json PATH`) is the CI leg.
"""

import time

import numpy as np

from repro.bench.experiments import dataset, paper_config
from repro.bench.harness import ExperimentResult
from repro.config import SystemConfig
from repro.runtime import NodeAllocator
from repro.serving import ServingConfig, ServingSession

#: Tight on purpose: two sessions wanting ``max_depth=4`` each must
#: contend — the fair share under overlap is 2, half of what either
#: would get alone.
DEPTH_BUDGET = 4

#: Lopsided backlogs (in full-size requests, each sealing one batch on
#: arrival): the long session still has work when the short one
#: closes, which is exactly the release-while-running moment the smoke
#: exists to observe.
BACKLOG = {"long": 24, "short": 6}

#: Targets per request — also each session's ``max_batch_targets``, so
#: every request is one micro-batch.
TARGETS = 16


def _session(alloc: NodeAllocator, seed: int) -> ServingSession:
    cfg = paper_config("sage", minibatch_size=64, fanouts=(4, 3),
                       hidden_dim=16, seed=seed)
    config = ServingConfig(latency_budget_s=0.5, max_batch_targets=TARGETS,
                           max_pending_requests=64, max_depth=DEPTH_BUDGET,
                           device="accel")
    return ServingSession(dataset("ogbn-products"), cfg,
                          SystemConfig(transfer_precision="int8"),
                          config=config, allocator=alloc)


def run_smoke() -> ExperimentResult:
    alloc = NodeAllocator(depth_budget=DEPTH_BUDGET)
    sessions = {"long": _session(alloc, seed=7),
                "short": _session(alloc, seed=8)}
    rng = np.random.default_rng(0)
    for label, session in sessions.items():
        ids = session.dataset.train_ids
        for _ in range(BACKLOG[label]):
            assert session.submit(rng.choice(ids, TARGETS,
                                             replace=False)) is None
        assert session.batcher.ready_batches == BACKLOG[label]

    # Step the open sessions in turn; a session that ran dry closes,
    # returning its share. Every step records the allocator state it
    # started under and how many batches it executed.
    observed: list[dict] = []
    walls = dict.fromkeys(sessions, 0.0)
    while not all(s.closed for s in sessions.values()):
        for label, session in sessions.items():
            if session.closed:
                continue
            snap = alloc.snapshot()
            t0 = time.perf_counter()
            executed = len(session.step())
            walls[label] += time.perf_counter() - t0
            observed.append({"session": label, "executed": executed,
                             "active": snap["active_sessions"],
                             "fair_share": snap["fair_share"],
                             "caps": snap["sessions"]})
            if not session.batcher.pending_requests:
                session.close()

    # --- the assertions the CI leg gates on -------------------------
    contended = [o for o in observed if o["active"] == 2]
    assert contended, "sessions never overlapped"
    for o in contended:
        assert o["fair_share"] == DEPTH_BUDGET // 2
        assert all(cap == DEPTH_BUDGET // 2 for cap in o["caps"].values())
        assert o["executed"] == DEPTH_BUDGET // 2
    events = alloc.events
    kinds = [kind for kind, _ in events]
    assert kinds.count("register") == 2 and kinds.count("release") == 2
    assert max(i for i, k in enumerate(kinds) if k == "register") < \
        min(i for i, k in enumerate(kinds) if k == "release"), \
        "registers did not all precede releases: no temporal overlap"
    # Release discipline: the survivor's cap rose the moment the short
    # session returned its share...
    solo = [o for o in observed if o["active"] == 1]
    assert solo and all(o["session"] == "long" for o in solo)
    for o in solo:
        assert o["fair_share"] == DEPTH_BUDGET
    assert solo[0]["executed"] == DEPTH_BUDGET
    # ...and the allocator ends clean, full budget back in the pool.
    assert alloc.active_count == 0
    assert alloc.available_depth == DEPTH_BUDGET
    for label, session in sessions.items():
        rep = session.report
        assert rep.completed == rep.accepted == BACKLOG[label]

    res = ExperimentResult(
        title=f"resctl smoke - {len(sessions)} serving sessions, "
              f"depth budget {DEPTH_BUDGET}",
        columns=["session", "requests", "wall time (s)",
                 "contended max batches/step", "solo max batches/step",
                 "released"])
    for label, session in sessions.items():
        mine = [o for o in observed if o["session"] == label]
        res.add_row(label, BACKLOG[label], walls[label],
                    max((o["executed"] for o in mine if o["active"] == 2),
                        default=0),
                    max((o["executed"] for o in mine if o["active"] == 1),
                        default=0),
                    session.closed)
    res.notes.append(
        f"contended steps observed: {len(contended)} (fair share "
        f"{DEPTH_BUDGET // 2} each); solo steps after release: "
        f"{len(solo)}; final allocator state: active=0, "
        f"available={alloc.available_depth}/{DEPTH_BUDGET}")
    res.notes.append(
        "events: " + ", ".join(f"{kind} {name}"
                               for kind, name in events))
    return res


def test_resctl_multi_session_smoke(show, benchmark):
    res = benchmark.pedantic(run_smoke, iterations=1, rounds=1)
    show(res.render())
    # run_smoke's internal assertions are the gate; re-check the
    # rendered evidence made it into the artifact.
    assert res.column("released") == [True, True]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Multi-session look-ahead arbitration smoke "
                    "(two serving sessions, one tight depth budget)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="additionally write the result table as "
                             "JSON (CI archives these as artifacts)")
    args = parser.parse_args()
    res = run_smoke()
    print(res.render())
    if args.json:
        res.write_json(args.json)
