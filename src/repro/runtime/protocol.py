"""Processor-accelerator training protocol (paper §III-C, Fig. 5).

The protocol defines the handshake between trainers, the synchronizer and
the runtime inside each iteration:

1. every trainer finishes propagation and raises ``DONE`` (after its
   gradients are stored/transferred to CPU memory);
2. when all ``n`` DONEs arrived, the synchronizer performs the all-reduce
   and broadcasts averaged gradients;
3. every trainer applies the update and raises ``ACK``;
4. when all ``n`` ACKs arrived, the runtime starts the next iteration.

:class:`ProtocolLog` records these events — every backend fills one on
its report (``report.protocol_log``), idle trainers included, through
the one synchronize tail every plane ends an iteration in
(:meth:`~repro.runtime.backends.base.ExecutionBackend.end_iteration`)
— and :func:`validate_protocol` checks the ordering invariants. The
conformance kit asserts that trace on every plane, the virtual
reference included: the reproduction's analogue of "the handshake code
in Listing 1 is correct".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from ..errors import ProtocolError


class Signal(enum.Enum):
    """Handshake signal types (paper Fig. 5)."""

    DONE = "DONE"            # trainer -> synchronizer: gradients ready
    SYNC = "SYNC"            # synchronizer: all-reduce completed
    ACK = "ACK"              # trainer -> runtime: weights updated
    ITER_START = "ITER"      # runtime: next iteration begins


@dataclass(frozen=True)
class ProtocolEvent:
    """One protocol event."""

    iteration: int
    signal: Signal
    sender: str


class ProtocolLog:
    """Append-only event log with per-iteration queries."""

    def __init__(self) -> None:
        self.events: list[ProtocolEvent] = []

    def record(self, iteration: int, signal: Signal, sender: str) -> None:
        """Append an event."""
        if iteration < 0:
            raise ProtocolError("iteration must be non-negative")
        self.events.append(ProtocolEvent(iteration, signal, sender))

    def iteration_events(self, iteration: int) -> list[ProtocolEvent]:
        """Events of one iteration, in arrival order."""
        return [e for e in self.events if e.iteration == iteration]

    def count(self, iteration: int, signal: Signal) -> int:
        """Number of events of one type within an iteration."""
        return sum(1 for e in self.iteration_events(iteration)
                   if e.signal is signal)

    @property
    def num_iterations(self) -> int:
        if not self.events:
            return 0
        return max(e.iteration for e in self.events) + 1


def validate_protocol(log: ProtocolLog, num_trainers: int) -> None:
    """Check the protocol invariants over a full log.

    Raises :class:`repro.errors.ProtocolError` on the first violation:

    * exactly ``num_trainers`` DONE and ACK events per iteration;
    * exactly one SYNC per iteration;
    * all DONEs precede the SYNC; the SYNC precedes all ACKs;
    * iteration ``i+1`` events never precede iteration ``i``'s last ACK.
    """
    if num_trainers <= 0:
        raise ProtocolError("num_trainers must be positive")
    order: dict[int, int] = {id(e): i for i, e in enumerate(log.events)}

    last_ack_pos = -1
    for it in range(log.num_iterations):
        events = log.iteration_events(it)
        dones = [e for e in events if e.signal is Signal.DONE]
        syncs = [e for e in events if e.signal is Signal.SYNC]
        acks = [e for e in events if e.signal is Signal.ACK]
        if len(dones) != num_trainers:
            raise ProtocolError(
                f"iteration {it}: {len(dones)} DONE events, expected "
                f"{num_trainers}")
        if len(syncs) != 1:
            raise ProtocolError(
                f"iteration {it}: {len(syncs)} SYNC events, expected 1")
        if len(acks) != num_trainers:
            raise ProtocolError(
                f"iteration {it}: {len(acks)} ACK events, expected "
                f"{num_trainers}")
        if len({e.sender for e in dones}) != num_trainers:
            raise ProtocolError(
                f"iteration {it}: duplicate DONE sender")
        if len({e.sender for e in acks}) != num_trainers:
            raise ProtocolError(
                f"iteration {it}: duplicate ACK sender")
        sync_pos = order[id(syncs[0])]
        for e in dones:
            if order[id(e)] > sync_pos:
                raise ProtocolError(
                    f"iteration {it}: DONE from {e.sender} after SYNC")
        for e in acks:
            if order[id(e)] < sync_pos:
                raise ProtocolError(
                    f"iteration {it}: ACK from {e.sender} before SYNC")
        first_pos = min(order[id(e)] for e in events)
        if first_pos < last_ack_pos:
            raise ProtocolError(
                f"iteration {it} started before iteration {it - 1} "
                "finished")
        last_ack_pos = max(order[id(e)] for e in acks)
