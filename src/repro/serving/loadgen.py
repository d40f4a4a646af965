"""Open-loop load generation against a :class:`ServingSession`.

Open-loop means the arrival schedule is fixed *before* the run — one
request every ``1/rate`` seconds, regardless of how the server keeps
up — and each request's latency is measured from its **scheduled**
arrival. A closed-loop generator (next request after the previous
response) hides overload by slowing itself down; open-loop is the
methodology that actually exposes it (queueing delay counts, and a
server that can't keep up must shed — visibly, typed — rather than
quietly stretch the measurement interval).

The generator drives the session's single-threaded ``submit``/``step``
loop on the real wall clock: due arrivals are submitted (stamped with
their scheduled arrival time), then the session steps. A hard grace
deadline bounds the drain phase so a wedged run fails loudly instead
of hanging a CI leg.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, ProtocolError
from .session import ServingReport, ServingSession


@dataclass(frozen=True)
class LoadSpec:
    """One open-loop experiment: Poisson-free deterministic arrivals
    at ``rate_rps`` for ``duration_s``."""

    rate_rps: float
    duration_s: float
    targets_per_request: int = 8
    tenants: tuple[str, ...] = ("default",)
    seed: int = 0
    #: Hard bound on the post-schedule drain before the run is
    #: declared wedged.
    grace_s: float = 10.0

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ConfigError("rate_rps must be positive")
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if self.targets_per_request < 1:
            raise ConfigError("targets_per_request must be >= 1")
        if not self.tenants:
            raise ConfigError("need at least one tenant")

    @property
    def num_requests(self) -> int:
        return max(1, int(round(self.rate_rps * self.duration_s)))


@dataclass
class LoadgenResult:
    """The numbers an open-loop run produced."""

    spec: LoadSpec
    report: ServingReport
    wall_s: float

    @property
    def throughput_rps(self) -> float:
        return self.report.completed / self.wall_s if self.wall_s > 0 \
            else 0.0

    @property
    def targets_per_s(self) -> float:
        return self.report.targets_served / self.wall_s \
            if self.wall_s > 0 else 0.0

    def to_dict(self) -> dict:
        out = self.report.to_dict()
        out.update({
            "offered_rate_rps": self.spec.rate_rps,
            "duration_s": self.spec.duration_s,
            "targets_per_request": self.spec.targets_per_request,
            "tenants": list(self.spec.tenants),
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "targets_per_s": self.targets_per_s,
        })
        return out


def run_open_loop(session: ServingSession,
                  spec: LoadSpec) -> LoadgenResult:
    """Drive ``session`` through one open-loop experiment.

    Pre-computes the whole arrival schedule (offsets and per-request
    target draws from the session's train-id domain), then replays it
    on the session clock: submit every due arrival stamped with its
    *scheduled* time, step, repeat; after the schedule ends, drain
    under the grace deadline.
    """
    n = spec.num_requests
    rng = np.random.default_rng(spec.seed)
    offsets = np.arange(n, dtype=np.float64) / spec.rate_rps
    ids = session.dataset.train_ids
    draws = [rng.choice(ids, size=spec.targets_per_request,
                        replace=False)
             if ids.size >= spec.targets_per_request
             else rng.choice(ids, size=spec.targets_per_request)
             for _ in range(n)]

    clock = session.clock
    start = clock()
    i = 0
    while i < n:
        now = clock()
        while i < n and start + offsets[i] <= now:
            session.submit(draws[i],
                           tenant=spec.tenants[i % len(spec.tenants)],
                           arrival_s=start + offsets[i])
            i += 1
        session.step()

    deadline = clock() + spec.grace_s
    while session.batcher.pending_requests > 0:
        if clock() > deadline:
            raise ProtocolError(
                f"serving drain exceeded the {spec.grace_s}s grace "
                f"deadline with {session.batcher.pending_requests} pending")
        session.step()
    wall = clock() - start
    return LoadgenResult(spec=spec, report=session.finalize_report(),
                         wall_s=wall)
