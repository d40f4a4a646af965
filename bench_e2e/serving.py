"""The ``serve-open`` workload: the benchmark's own load generator
against a :class:`~repro.serving.ServingSession`.

Public surface only: ``ServingSession.submit/step/drain/close``, its
``report``, ``pipeline`` and ``model`` attributes, ``ServingConfig``.
The generator is one thread and never sleeps: between due arrivals it
polls ``step()`` — which is how the session's owner is meant to drive
it — so a request is never late because the generator was asleep.
"""

from __future__ import annotations

import time

import numpy as np

from repro import SystemConfig, TrainingConfig
from repro.graph.datasets import load_dataset, tiny_dataset
from repro.serving import ServingConfig, ServingSession

from .harness import (
    HostProbe,
    Ledger,
    Tracer,
    coeff_var,
    mean,
    median,
    percentile,
    quiesce,
)

DATASET = ("ogbn-products", 1 / 32)
TRAIN = dict(model="sage", minibatch_size=512, fanouts=(10, 5),
             hidden_dim=128)
SMOKE_TRAIN = dict(model="sage", minibatch_size=32, fanouts=(4, 3),
                   hidden_dim=16)
SYSTEM = dict(transfer_precision="int8")
CONFIG = dict(latency_budget_s=0.25, coalesce_window_s=0.005,
              max_batch_targets=256, max_pending_requests=128)

#: Open loop: requests/s offered (≈ 40 % of capacity on the 2-vCPU
#: box), each asking for this many targets.
RATE_RPS = 800.0
TARGETS_PER_REQUEST = 8
#: Closed loop: requests kept outstanding (= the admission bound).
OUTSTANDING = 128
#: Closed-loop requests a fresh session serves before anything is
#: timed (part of ``setup_s``).
WARMUP_REQUESTS = 2000
SETUP_REPS = 5
#: Share of ``--seconds`` the open-loop phase gets; the closed-loop
#: saturation phase gets the rest.
OPEN_SHARE = 0.6
#: Both phases run in segments of about this long, the host probe read
#: between them (never inside one: a probe on the generator's thread
#: would be a stall every request behind it pays for).
SEGMENT_S = 1.0
#: Distinct requests drawn from the seed (cycled).
REQUEST_POOL = 8192
#: Recorded micro-batches replayed through ``prepare`` + ``forward``.
REPLAY_BATCHES = 200


def make_dataset(seed: int, smoke: bool):
    if smoke:
        return tiny_dataset(num_vertices=400, feature_dim=12,
                            num_classes=4, avg_degree=8.0, seed=seed)
    return load_dataset(*DATASET, seed=seed)


def make_session(dataset, seed: int, smoke: bool) -> ServingSession:
    train = dict(SMOKE_TRAIN if smoke else TRAIN, seed=seed)
    # One clock for the session, the arrival schedule and the spans.
    return ServingSession(dataset, TrainingConfig(**train),
                          SystemConfig(**SYSTEM),
                          config=ServingConfig(**CONFIG),
                          clock=time.perf_counter)


def draw_requests(dataset, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.choice(dataset.train_ids,
                      size=(REQUEST_POOL, TARGETS_PER_REQUEST))


class Client:
    """The load generator's side of one session: what was sent, what
    came back, and when.

    Responses are only collected inside the loops and validated
    afterwards (:meth:`settle`), so checking costs the served requests
    nothing. Request ids are the session's own sequence — one client
    per session, every submit through it — which is what lets a
    response be matched to the targets it was asked for.
    """

    def __init__(self, session: ServingSession, draws: np.ndarray,
                 tracer: Tracer) -> None:
        self.session = session
        self.draws = draws
        self.tracer = tracer
        self.sent = 0
        self.pending: dict[int, int] = {}      # request id -> draw row
        self.in_flight = 0                     # accepted, unanswered
        self.sheds = 0
        #: One entry per productive ``step()``: (start, responses).
        self.steps: list[tuple[float, list]] = []
        self.settled = 0            # steps already validated
        self.lags: list[float] = []

    # -- the two calls the generator makes ----------------------------
    def submit(self, due: float | None = None) -> None:
        rid = self.sent
        row = rid % len(self.draws)
        start = time.perf_counter()
        shed = self.session.submit(self.draws[row], arrival_s=due)
        self.tracer.add("serving.submit", start, time.perf_counter(),
                        rid)
        self.sent += 1
        if due is not None:
            self.lags.append(start - due)
        if shed is None:
            self.pending[rid] = row
            self.in_flight += 1
        else:
            self.sheds += 1

    def step(self, drain: bool = False) -> int:
        start = time.perf_counter()
        responses = (self.session.drain() if drain
                     else self.session.step())
        if not responses:
            return 0                # an idle poll: nothing to record
        self.tracer.add("serving.step", start, time.perf_counter(),
                        len(self.steps))
        self.steps.append((start, responses))
        self.in_flight -= len(responses)
        return len(responses)

    # -- load shapes ---------------------------------------------------
    def open_loop(self, rate: float, requests: int) -> None:
        """Offer ``requests`` on a fixed schedule, whatever the session
        does; each is stamped with its *scheduled* arrival."""
        start = time.perf_counter()
        i = 0
        while i < requests:
            now = time.perf_counter()
            while i < requests and start + i / rate <= now:
                self.submit(due=start + i / rate)
                i += 1
            self.step()
        self.step(drain=True)

    def closed_loop(self, *, requests: int | None = None,
                    seconds: float | None = None) -> tuple[int, float]:
        """Keep :data:`OUTSTANDING` requests in flight until
        ``requests`` were sent or ``seconds`` passed, then drain.
        Returns ``(completed, wall_s)``."""
        start = time.perf_counter()
        sent = done = 0
        while True:
            if requests is not None and sent >= requests:
                break
            if seconds is not None and \
                    time.perf_counter() - start >= seconds:
                break
            room = OUTSTANDING - self.in_flight
            if requests is not None:
                room = min(room, requests - sent)
            for _ in range(room):
                self.submit()
            sent += room
            done += self.step()
        done += self.step(drain=True)
        return done, time.perf_counter() - start

    # -- afterwards ----------------------------------------------------
    def settle(self, ledger: Ledger) -> None:
        """Validate everything since the last call, one op per
        request: failed unless exactly one response came back with one
        in-range prediction per target. Sheds count as failed ops (the
        load is sized so that none is expected)."""
        classes = self.session.dataset.spec.num_classes
        steps, self.settled = (self.steps[self.settled:],
                               len(self.steps))
        for _, responses in steps:
            for r in responses:
                row = self.pending.pop(r.request_id, None)
                p = r.predictions
                if row is None:
                    ledger.op(f"unexpected response {r.request_id}")
                elif p.size != TARGETS_PER_REQUEST:
                    ledger.op(f"{p.size} predictions for "
                              f"{TARGETS_PER_REQUEST} targets")
                elif p.min() < 0 or p.max() >= classes:
                    ledger.op("prediction out of class range")
                else:
                    ledger.op(None)
        for rid in self.pending:
            ledger.op(f"request {rid} never answered")
        self.pending.clear()
        for _ in range(self.sheds):
            ledger.op("request shed")
        self.sheds = 0

    def latencies(self, first_step: int, last_step: int) -> list[float]:
        return [r.latency_s for _, rs in self.steps[first_step:last_step]
                for r in rs]


def fresh_client(dataset, draws, seed: int, smoke: bool, tracer: Tracer,
                 ledger: Ledger) -> tuple[float, Client]:
    """What ``setup_s`` times: a session plus its warm-up requests
    (checked, but warm-up is not counted as ops)."""
    warm = Ledger()
    quiesce()
    start = time.perf_counter()
    client = Client(make_session(dataset, seed, smoke), draws,
                    Tracer(enabled=False))
    client.closed_loop(requests=200 if smoke else WARMUP_REQUESTS)
    took = time.perf_counter() - start
    client.settle(warm)
    ledger.check(warm.failed == 0,
                 f"warm-up requests failed: {warm.problems}")
    client.tracer = tracer
    return took, client


# ---------------------------------------------------------------------------
# End-to-end pass (tracing off)
# ---------------------------------------------------------------------------

def run_end_to_end(seed: int, seconds: float, smoke: bool,
                   ledger: Ledger, raw: dict) -> dict[str, float]:
    """The three time metrics, each divided by the host slowdown read
    around it (:class:`~.harness.HostProbe`): a latency by its
    segment's, a segment's throughput multiplied by it. ``raw``
    receives the same medians undivided, for the record."""
    dataset = make_dataset(seed, smoke)
    draws = draw_requests(dataset, seed)
    probe = HostProbe()
    off = Tracer(enabled=False)
    setups, setup_slow = [], []
    client = None
    try:
        for _ in range(2 if smoke else SETUP_REPS):
            if client is not None:
                client.session.close()
            client = None
            took, client = fresh_client(dataset, draws, seed, smoke,
                                        off, ledger)
            setups.append(took)
            setup_slow.append(probe.lap())

        segments = 1 if smoke else max(1, round(seconds / SEGMENT_S))
        open_segments = max(1, round(OPEN_SHARE * segments))
        # Phase A, open loop: latency from the scheduled arrival.
        latencies, scaled = [], []
        quiesce()
        probe.mark()
        for _ in range(open_segments):
            first = len(client.steps)
            client.open_loop(RATE_RPS, 100 if smoke else
                             int(RATE_RPS * SEGMENT_S))
            slowdown = probe.lap()
            got = client.latencies(first, len(client.steps))
            latencies += got
            scaled += [x / slowdown for x in got]
        # Phase B, closed loop: capacity.
        rates, slowdowns = [], []
        quiesce()
        probe.mark()
        for _ in range(max(1, segments - open_segments)):
            done, wall = client.closed_loop(
                **(dict(requests=300) if smoke
                   else dict(seconds=SEGMENT_S)))
            rates.append(done * TARGETS_PER_REQUEST / wall)
            slowdowns.append(probe.lap())
        client.settle(ledger)
    finally:
        if client is not None:
            client.session.close()
    raw.update(setup_s=median(setups),
               op_p50_ms=median(latencies) * 1e3,
               targets_per_s=median(rates),
               host_slowdown=median(slowdowns))
    return {
        "setup_s": median(t / f for t, f in zip(setups, setup_slow)),
        "op_p50_ms": median(scaled) * 1e3,
        "targets_per_s": median(r * f for r, f in
                                zip(rates, slowdowns)),
    }


# ---------------------------------------------------------------------------
# Traced pass
# ---------------------------------------------------------------------------

def _phase_a_metrics(client: Client, first: int, offered: int,
                     sheds: int, kernel_before: dict,
                     batches_before: int) -> tuple[dict, list]:
    """Open-loop per-layer numbers; also returns the recorded
    micro-batches (each a concatenated target array)."""
    steps = client.steps[first:]
    latencies = client.latencies(first, len(client.steps))
    waits, by_batch = [], {}
    for start, responses in steps:
        for r in responses:
            waits.append(start - (r.completed_s - r.latency_s))
            row = client.pending.get(r.request_id)
            if row is not None:
                by_batch.setdefault(r.batch_seq, []).append(
                    client.draws[row])
    batches = [np.concatenate(rows) for rows in by_batch.values()]
    report = client.session.report
    sizes = report.batch_sizes[batches_before:]
    kstats = client.session.finalize_report().kernel_stats
    delta = lambda key: (kstats.get(key, 0)        # noqa: E731
                         - kernel_before.get(key, 0))
    n = max(1, len(sizes))
    return {
        "serving.queue_wait_ms": median(waits) * 1e3,
        "serving.batch_requests_mean": mean(sizes),
        "serving.batch_targets_mean":
            mean(b.size for b in batches),
        "serving.unique_target_ratio":
            mean(np.unique(b).size / b.size for b in batches),
        "serving.shed_share": sheds / offered if offered else 0.0,
        "serving.latency_p95_ms": percentile(latencies, 95) * 1e3,
        "serving.latency_p99_ms": percentile(latencies, 99) * 1e3,
        "serving.loadgen_lag_p99_ms":
            percentile(client.lags, 99) * 1e3,
        "driver.op_p90_ms": percentile(latencies, 90) * 1e3,
        "driver.op_cv": coeff_var(latencies),
        "kernels.gather_bytes_per_op": delta("gather_src_bytes") / n,
        "kernels.payload_bytes_per_op": delta("payload_bytes") / n,
    }, batches


def _replay_batches(session: ServingSession, batches: list,
                    tracer: Tracer, ledger: Ledger) -> dict:
    """Recorded micro-batches, one at a time on an idle session,
    through the session's own producer chain and model."""
    timings, forward, edges, inputs = [], [], [], []
    device = session.config.device
    for op, targets in enumerate(batches[:REPLAY_BATCHES]):
        unique = np.unique(targets)
        with tracer.span("serving.replay", op):
            prepared = session.pipeline.prepare(unique, device,
                                                with_labels=False)
            start = time.perf_counter()
            logits = session.model.forward(prepared.mb, prepared.x0,
                                           session.degrees)
            end = time.perf_counter()
            tracer.add("nn.forward", start, end, op)
        timings.append(prepared.timings)
        forward.append(end - start)
        stats = prepared.mb.stats()
        edges.append(stats.total_edges)
        inputs.append(stats.num_input_nodes)
        ledger.op(None if logits.shape[0] == unique.size and
                  np.isfinite(logits).all()
                  else "replayed forward gave bad logits")
    sample = median(t.sample_s for t in timings) * 1e3
    gather = median(t.gather_s for t in timings) * 1e3
    return {
        "serving.prepare_sample_ms": sample,
        "serving.prepare_gather_ms": gather,
        "serving.prepare_transfer_ms":
            median(t.transfer_s for t in timings) * 1e3,
        "nn.forward_ms": median(forward) * 1e3,
        # The same layers under their training names: the quantizing
        # accelerator path bills the fused kernel to ``gather_s``.
        "sampling.sample_ms": sample,
        "kernels.load_fused_ms": gather,
        "sampling.edges_per_batch": mean(edges),
        "sampling.input_vertices_per_batch": mean(inputs),
    }


def run_traced(seed: int, seconds: float, smoke: bool, ledger: Ledger,
               tracer: Tracer) -> dict[str, float]:
    t0 = time.perf_counter()
    dataset = make_dataset(seed, smoke)
    materialize_s = time.perf_counter() - t0
    draws = draw_requests(dataset, seed)
    probe = HostProbe()
    host = [probe.lap()]          # read again between the parts
    t0 = time.perf_counter()
    make_session(dataset, seed, smoke).close()
    init_s = time.perf_counter() - t0
    client = None
    try:
        warmup_s, client = fresh_client(dataset, draws, seed, smoke,
                                        tracer, ledger)
        session = client.session

        # Phase A with a span around every submit and productive step.
        first = len(client.steps)
        kernel_before = session.finalize_report().kernel_stats
        batches_before = len(session.report.batch_sizes)
        offered = 100 if smoke else int(RATE_RPS * 0.4 * seconds)
        quiesce()
        with tracer.span("serving.open_loop"):
            client.open_loop(RATE_RPS, offered)
        m, batches = _phase_a_metrics(client, first, offered,
                                      client.sheds, kernel_before,
                                      batches_before)
        client.settle(ledger)
        host.append(probe.lap())

        # Phase B in short alternating spans-on / spans-off segments
        # of the same closed loop: neighbours see the same host, so
        # their paired difference is the tracing cost.
        segment = dict(requests=150) if smoke \
            else dict(seconds=0.015 * seconds)
        rps = {True: [], False: []}
        quiesce()
        for k in range(20):
            on = k % 2 == 0
            client.tracer = tracer if on else Tracer(enabled=False)
            with client.tracer.span("serving.closed_loop", k):
                done, wall = client.closed_loop(**segment)
            rps[on].append(done / wall)
        client.tracer = tracer
        client.settle(ledger)
        host.append(probe.lap())
        m.update(_replay_batches(session, batches, tracer, ledger))
    finally:
        if client is not None:
            client.session.close()

    own = tracer.self_time_by_name()
    loop_s = sum(tracer.durations("serving.closed_loop"))
    cost = median((off - on) / off
                  for on, off in zip(rps[True], rps[False]))
    m.update({
        "graph.materialize_s": materialize_s,
        "graph.vertices": dataset.graph.num_vertices,
        "graph.edges": dataset.graph.num_edges,
        "graph.feature_mb": dataset.features.nbytes / 1e6,
        "runtime.core.session_init_s": init_s,
        "driver.warmup_s": warmup_s,
        "driver.host_slowdown": median(host),
        "serving.submit_us":
            median(tracer.durations("serving.submit")) * 1e6,
        "serving.step_ms":
            median(tracer.durations("serving.step")) * 1e3,
        "serving.saturation_rps": median(rps[True]),
        # Closed loop only: in the open loop the generator mostly
        # polls an idle session, which no span covers.
        "trace.closure_pct":
            100.0 * (1.0 - own.get("serving.closed_loop", 0.0) / loop_s)
            if loop_s else 0.0,
        "trace.overhead_pct": 100.0 * cost,
    })
    return m
