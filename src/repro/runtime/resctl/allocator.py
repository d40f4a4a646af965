"""Node-level look-ahead budget arbitration (resctl stage 2 of 2).

One machine, several concurrent
:class:`~repro.serving.ServingSession`s: each wants look-ahead depth
(micro-batches executed per :meth:`~repro.serving.ServingSession.step`,
each holding a sampled graph and gathered feature rows), and the node
has a finite appetite for that in-flight memory. The
:class:`NodeAllocator` arbitrates a shared **depth budget**: sessions
register when they open, read their *live* grant on every step (the
cap is an equal share of the budget, so it rises automatically as
co-tenants close), and release on close. The shape follows Spirit's
incremental allocator (monitor → estimator → allocator) and QY-style
dynamic resource release: finished sessions return their share
immediately rather than holding it to the end of the gang. Training
backends hold the session's fixed window and register nothing.

A process-global :data:`DEFAULT_ALLOCATOR` (budget
:data:`DEFAULT_DEPTH_BUDGET`) backs sessions that are not handed an
explicit allocator; with a single registered session the equal share
is the whole budget, so single-session behavior is unchanged — the
arbitration only binds when sessions actually contend.
"""

from __future__ import annotations

import itertools
import threading

from ...errors import ProtocolError

#: Default node-wide look-ahead depth budget. Deliberately comfortable:
#: a lone session (or a handful) is never throttled below its
#: configured ``max_depth``; contention among many co-tenant sessions
#: is what the arbitration is for.
DEFAULT_DEPTH_BUDGET = 64


class DepthGrant:
    """One registered session's live claim on the node budget.

    ``depth_cap`` re-reads the allocator on every call — a grant is a
    *subscription* to the current fair share, not a frozen number, so
    a session picks up released budget at its very next step without
    any callback plumbing. Usable as a context manager;
    ``release()`` is idempotent.
    """

    def __init__(self, allocator: "NodeAllocator", token: int,
                 name: str, max_depth: int) -> None:
        self._allocator = allocator
        self.token = token
        self.name = name
        self.max_depth = max_depth

    @property
    def depth_cap(self) -> int:
        """This session's current depth cap (>= 1 always: a grant can
        throttle look-ahead, never deadlock a session)."""
        return self._allocator._cap_for(self.token)

    @property
    def released(self) -> bool:
        return not self._allocator._holds(self.token)

    def release(self) -> None:
        self._allocator.release(self)

    def __enter__(self) -> "DepthGrant":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "released" if self.released else \
            f"cap={self.depth_cap}"
        return f"<DepthGrant {self.name!r} {state}>"


class NodeAllocator:
    """Arbitrates look-ahead depth across concurrent sessions.

    Parameters
    ----------
    depth_budget:
        Total in-flight look-ahead depth the node will grant across
        all registered sessions. Each session's cap is the equal share
        ``max(1, budget // active)`` clamped to its requested
        ``max_depth`` — never below 1, so registering more sessions
        than budget degrades to one batch per step, not deadlock.
    """

    def __init__(self, depth_budget: int = DEFAULT_DEPTH_BUDGET) -> None:
        if depth_budget < 1:
            raise ProtocolError("depth budget must be >= 1")
        self.depth_budget = depth_budget
        self._lock = threading.Lock()
        self._tokens = itertools.count()
        self._active: dict[int, tuple[str, int]] = {}
        #: Audit trail of ``(event, name)`` pairs — the multi-session
        #: smoke asserts the release discipline off this.
        self.events: list[tuple[str, str]] = []

    # ------------------------------------------------------------------
    def register(self, name: str, max_depth: int) -> DepthGrant:
        """Claim a share of the node budget for one session."""
        if max_depth < 1:
            raise ProtocolError("max_depth must be >= 1")
        with self._lock:
            token = next(self._tokens)
            self._active[token] = (name, max_depth)
            self.events.append(("register", name))
        return DepthGrant(self, token, name, max_depth)

    def release(self, grant: DepthGrant) -> None:
        """Return a grant's share to the pool (idempotent)."""
        with self._lock:
            entry = self._active.pop(grant.token, None)
            if entry is not None:
                self.events.append(("release", entry[0]))

    # ------------------------------------------------------------------
    def _holds(self, token: int) -> bool:
        with self._lock:
            return token in self._active

    def _cap_for(self, token: int) -> int:
        with self._lock:
            entry = self._active.get(token)
            if entry is None:
                raise ProtocolError(
                    "depth_cap read on a released grant")
            share = max(1, self.depth_budget // len(self._active))
            return min(entry[1], share)

    @property
    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    @property
    def available_depth(self) -> int:
        """Budget not currently claimed by equal shares (observability;
        grants are shares, not reservations, so this is the headroom
        the *next* registrant would dilute)."""
        with self._lock:
            if not self._active:
                return self.depth_budget
            used = sum(min(cap,
                           max(1, self.depth_budget
                               // len(self._active)))
                       for _, cap in self._active.values())
            return max(0, self.depth_budget - used)

    def snapshot(self) -> dict:
        """Point-in-time view for logs and the multi-session smoke."""
        with self._lock:
            active = len(self._active)
            share = max(1, self.depth_budget // active) if active \
                else self.depth_budget
            return {
                "depth_budget": self.depth_budget,
                "active_sessions": active,
                "fair_share": share,
                "sessions": {name: min(cap, share)
                             for name, cap in self._active.values()},
                "events": list(self.events),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<NodeAllocator budget={self.depth_budget} "
                f"active={self.active_count}>")


#: Process-global allocator sessions fall back to when not handed one.
DEFAULT_ALLOCATOR = NodeAllocator()
