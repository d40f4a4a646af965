"""The benchmark's one command (contract: ``BENCHMARK.json``).

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench_e2e/run.py                  # all four workloads
    python3 bench_e2e/run.py --trace 1        # ... plus the per-layer pass
    python3 bench_e2e/run.py --aa 10          # repeatability checker
    python3 bench_e2e/run.py --smoke          # tiny fixtures, seconds

One workload runs in one fresh worker process under a pinned
environment; several workloads run one after another, each in its own
worker. This process only supervises: it adopts whatever the worker
leaves behind (multiprocessing's resource tracker ends a moment after
the worker that used shared memory) and does not return before every
such process has ended. Every metric is printed by name with its unit,
outputs are checked, and the last line of standard output is the JSON
result object the contract names. The exit code is non-zero when a
check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench_e2e.harness import (  # noqa: E402
    PINNED_ENV,
    spread,
    stop_resource_tracker,
)

#: A worker that has not finished by then is killed (the contract
#: gives a run 180 s).
CHILD_TIMEOUT_S = 170
#: How long processes a finished worker left behind get to end by
#: themselves before they are killed.
REAP_GRACE_S = 5.0


def load_spec() -> dict:
    """``BENCHMARK.json`` is the one place workloads, metric names,
    units, directions and bounds are declared; this package reads
    them from there."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False,
                 spans_path: str | None = None) -> dict:
    """Run one pass of one workload and return the result object
    (plus ``problems``, ``env``, the spans' ``self_time_s`` by name
    and the ``raw`` end-to-end medians before host-speed
    normalisation, which :func:`emit` prints but the JSON line
    leaves out)."""
    spec = load_spec()
    if name not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"unknown workload {name!r}")
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"nothing to measure: {src}/repro is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from bench_e2e import harness, serving, training

    ledger = harness.Ledger()
    tracer = harness.Tracer(enabled=trace)
    raw: dict[str, float] = {}      # end-to-end medians, unnormalised
    try:
        if name == "serve-open":
            values = (serving.run_traced(seed, seconds, smoke, ledger,
                                         tracer) if trace else
                      serving.run_end_to_end(seed, seconds, smoke,
                                             ledger, raw))
        else:
            values = (training.run_traced(name, seed, seconds, smoke,
                                          ledger, tracer) if trace else
                      training.run_end_to_end(name, seed, seconds,
                                              smoke, ledger, raw))
    finally:
        # Sessions and backends are closed by now; nothing of theirs
        # may outlive the workload.
        left = harness.leaks()
    ledger.check(not left, f"left behind: {left}")
    ledger.check(ledger.attempted >= 1, "no op was attempted")

    declared = spec["per_layer" if trace else "end_to_end"]
    if trace:
        # A layer this workload does not exercise reads 0.
        metrics = {m["name"]: 0.0 for m in declared}
    else:
        values["peak_rss_mb"] = harness.peak_rss_mb()
        metrics = {}
    unknown = sorted(set(values) - {m["name"] for m in declared})
    if unknown:
        raise SystemExit(f"undeclared metrics: {unknown}")
    metrics.update(values)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    if not trace:
        for key, value in metrics.items():
            ledger.check(value > 0, f"{key} is not positive")

    if trace and spans_path:
        Path(spans_path).write_text(json.dumps(tracer.to_rows()))
    own = tracer.self_time_by_name()
    units = {m["name"]: m["unit"] for m in declared}
    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
        "problems": ledger.problems,
        "env": harness.environment(seed),
        "self_time_s": dict(sorted(own.items(), key=lambda kv: -kv[1])),
        "raw": raw,
    }


def emit(name: str, result: dict, trace: bool) -> None:
    """Every metric by name with its unit, then the result line."""
    print(f"# {name}  ({'per-layer, traced' if trace else 'end-to-end'})")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    for key, m in result["metrics"].items():
        print(f"{key:<52} {m['value']:>16.6g} {m['unit']}")
    if result["raw"]:
        print(f"# raw {json.dumps(result['raw'])}")
    total = sum(result["self_time_s"].values())
    for span, own in result["self_time_s"].items():
        print(f"# self time {span:<40} {own:>9.4f} s "
              f"{own / total:>6.1%}")
    print(f"ops attempted {result['attempted']}  failed "
          f"{result['failed']}")
    for problem in result["problems"]:
        print(f"PROBLEM {problem}")
    line = {k: result[k]
            for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)


# ---------------------------------------------------------------------------
# Worker processes: a fresh one per workload pass, never two at once
# ---------------------------------------------------------------------------

def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process instead
    of to init, so that it can wait for them (Linux
    ``PR_SET_CHILD_SUBREAPER``; where a sandbox refuses the call, the
    worker's own clean-up in :func:`main` has to do)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def children_of(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:           # ended while we were looking
                continue
            # pid (comm) state ppid ...; comm may hold spaces and ")".
            if int(stat.rpartition(")")[2].split()[1]) == pid:
                found.append(int(entry.name))
    return found


def reap_descendants() -> None:
    """Return once this process has no child left, running or zombie.
    What is still running after :data:`REAP_GRACE_S` is killed."""
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                for child in children_of(os.getpid()):
                    os.kill(child, signal.SIGKILL)
            time.sleep(0.01)


def supervise(worker_args: list[str],
              capture: bool) -> tuple[int, str | None]:
    """One worker process (this script with ``--worker``) under the
    pinned environment — BLAS thread counts and the hash seed are read
    at start-up — and, after it, everything it left behind: returns
    ``(exit code, its standard output if captured)`` only when all of
    it has ended."""
    become_subreaper()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           *worker_args]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env={**os.environ, **PINNED_ENV},
                            stdout=subprocess.PIPE if capture else None,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker killed after {CHILD_TIMEOUT_S}s: {worker_args}",
              file=sys.stderr)
        proc.kill()
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:       # interrupted: take it down too
            proc.kill()
            proc.wait()
        reap_descendants()
    return proc.returncode, out


def run_child(name: str, seed: int, seconds: float, trace: bool,
              smoke: bool, echo: bool = True) -> dict | None:
    """One workload pass in a fresh process; its parsed result line,
    or ``None`` when it failed a check or died."""
    args = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        args.append("--smoke")
    code, out = supervise(args, capture=True)
    lines = out.splitlines()
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    if code != 0 or not lines:
        if not echo:
            print(out, file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    result["raw"] = next((json.loads(line[len("# raw "):])
                          for line in lines
                          if line.startswith("# raw ")), {})
    return result


def run_all(spec: dict, args) -> int:
    ok = True
    summary = {}
    for w in spec["workloads"]:
        for trace in ([False, True] if args.trace else [False]):
            result = run_child(w["name"], args.seed, args.seconds,
                               trace, args.smoke)
            ok = ok and result is not None and result["correct"]
            if result is not None:
                summary.setdefault(w["name"], {}).update(
                    attempted=result["attempted"],
                    failed=result["failed"],
                    **{k: v["value"]
                       for k, v in result["metrics"].items()})
            print()
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def _aa_table(spec: dict, values: dict, gated: bool) -> bool:
    ok = True
    print("| workload | metric | median A | median B | spread A | "
          "spread B | B vs A | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for n, by_metric in values["A"].items():
        for m in spec["end_to_end"]:
            a = by_metric.get(m["name"])
            b = values["B"][n].get(m["name"])
            if not a:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if m["better"] == "higher":
                worse = -worse
            # setup_s is held to its median only (the driver's rule).
            spreads_ok = m["name"] == "setup_s" or \
                max(spread(a), spread(b)) <= m["bound"]
            good = spreads_ok and worse <= m["bound"]
            ok = ok and good
            verdict = ("ok" if good else "VIOLATION") if gated else \
                ("-" if good else "would fail")
            print(f"| {n} | {m['name']} ({m['unit']}) | {med_a:.5g} | "
                  f"{med_b:.5g} | {spread(a):.1%} | {spread(b):.1%} | "
                  f"{worse:+.1%} worse | {m['bound']:.0%} | "
                  f"{verdict} |")
    return ok


def run_aa(spec: dict, args) -> int:
    """Two interleaved sets (A B A B ...) of ``--aa N`` runs of the
    same code, run ``i`` of either set on seed ``--seed + i`` — what
    the driver does to accept the benchmark. Prints, per workload and
    end-to-end metric, both medians, both spreads (inter-quartile
    distance over median) and the set-to-set change, against the
    metric's bound; then the same table for the raw (not
    host-speed-normalised) medians of the same runs, ungated."""
    names = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    values = {s: {n: {} for n in names} for s in "AB"}
    raws = {s: {n: {} for n in names} for s in "AB"}
    for i in range(args.aa):
        for s in "AB":
            for n in names:
                print(f"[aa] run {i + 1}/{args.aa} set {s} {n}",
                      file=sys.stderr, flush=True)
                result = run_child(n, args.seed + i, args.seconds,
                                   False, args.smoke, echo=False)
                if result is None or not result["correct"]:
                    print(f"[aa] {n} seed {args.seed + i} failed",
                          file=sys.stderr)
                    return 1
                for k, v in result["metrics"].items():
                    values[s][n].setdefault(k, []).append(v["value"])
                for k, v in result["raw"].items():
                    raws[s][n].setdefault(k, []).append(v)

    print(f"# Repeatability: 2 x {args.aa} runs per workload, "
          f"{args.seconds:g} s each, seeds {args.seed}.."
          f"{args.seed + args.aa - 1}\n")
    ok = _aa_table(spec, values, gated=True)
    print(f"\n{'All' if ok else 'NOT all'} workload x metric pairs "
          "within their bounds.")
    print("\n## The same runs before host-speed normalisation "
          "(not gated)\n")
    _aa_table(spec, raws, gated=False)
    slow = [x for s in "AB" for n in names
            for x in raws[s][n].get("host_slowdown", [])]
    if slow:
        print(f"\nHost slowdown read by the probe over these runs: "
              f"min {min(slow):.2f}, median "
              f"{statistics.median(slow):.2f}, max {max(slow):.2f} "
              "(1.0 = the quiet reference box).")
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", metavar="PATH",
                   help="with --workload and --trace 1: write the "
                        "recorded spans there as JSON")
    p.add_argument("--smoke", action="store_true",
                   help="tiny fixtures, a few ops (self-test)")
    p.add_argument("--aa", type=int, metavar="N", default=0,
                   help="repeatability check over 2 x N runs")
    p.add_argument("--worker", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.aa:
        return run_aa(spec, args)
    if args.workload is None:
        return run_all(spec, args)
    if argv is None and not args.worker:
        return supervise(sys.argv[1:], capture=False)[0]
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke, args.spans)
        emit(args.workload, result, bool(args.trace))
    finally:
        stop_resource_tracker()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
