"""Lock-step timeslot coordinator for a federation of simulators.

Time is discretized into half-open slots [s*tau, (s+1)*tau).  Each slot the
coordinator grants the slot window to every federate with work in it (see
below), collects the messages they emit inside it, and hands every queued
message to its destination at the synchronization point, i.e. at the slot
end.  A message published at tick t in slot s is therefore seen by its
destination at (s+1)*tau, which bounds the added latency to (0, tau].

Simultaneous messages are totally ordered by (timestamp, message id,
publisher); the tie-break makes the delivered trace deterministic and
transport-independent.  A publisher never repeats an id, so the order is
total however many federates publish to one destination.

Grants are conservative and lookahead-based, in the manner of HLA's Next
Event Request and Chandy-Misra-Bryant simulation: each step returns the
federate's outbox and its lookahead, the earliest tick whose slot it must
be granted even with an empty inbox.  Every slot is still a barrier and
``advance_slot`` still runs once per slot, but a federate is granted only
the slots in which its inbox holds messages or its declared tick falls; a
slot in which no federate is due costs a compare and a counter increment,
and allocates nothing.  A federate is not stepped, and sees no grant, in
the slots it declared no event for, so its state must change only when it
is stepped.  A lookahead of -1 asks for every slot.

The coordinator alone ends the run: ``run(n_slots)`` advances exactly
``n_slots`` slots, and no federate is granted a slot for the horizon's sake.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Protocol

from .errors import DuplicateName, FederationStarted, ProtocolViolation, quote
from .messages import SimMessage


class FederateEndpoint(Protocol):
    """Transport-side handle the coordinator drives in the slots it grants.

    ``begin_step`` hands over the inbox and the grant; ``finish_step``
    blocks until the federate acknowledged the slot and returns its step's
    (outbox, next_tick) as is: outbox items are (at_tick, to_name, message),
    as in ACK_SLOT, and next_tick is its lookahead (see the module docstring).
    """

    def begin_step(self, slot: int, slot_end_tick: int, inbox: list[SimMessage]) -> None: ...

    def finish_step(self) -> tuple[list[tuple[int, str, SimMessage]], int]: ...


@dataclass(slots=True, eq=False)
class _FederateHandle:
    """Everything the coordinator keeps for one federate."""

    fid: int
    endpoint: FederateEndpoint
    # Cached lookahead: it changes only when the federate is stepped.
    # -1 grants the first slot, before the federate declared anything.
    next_tick: int = -1
    # Delivered at the last synchronization point, handed over at the next grant.
    inbox: list[SimMessage] = field(default_factory=list)
    # Queued for this federate this slot, as (at_tick, msg id, publisher fid,
    # message): the first three are unique within a slot, so sorting never
    # compares messages.
    pending: list[tuple[int, int, int, SimMessage]] = field(default_factory=list)
    # The ids this federate published: msg.id >> 6 -> a 64-bit word whose
    # bit msg.id & 63 marks that id.
    published: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class SyncReport:
    """Outcome of one synchronization point; ``Rti.current_slot`` is past it."""

    messages_delivered: int


# Returned by every slot that delivers nothing, idle or granted.
_NOTHING_DELIVERED = SyncReport(0)


@dataclass
class FederationResult:
    """Aggregate outcome of a federation run."""

    slots_run: int = 0
    messages_published: int = 0
    messages_delivered: int = 0
    wallclock_s: float = 0.0
    trace_digest: str = ""


class Rti:
    """The runtime coordinator owning federation state.

    Single-threaded by design: federates may compute concurrently between
    grant and acknowledgment, but all state crossing the slot barrier flows
    through publish/deliver on this object.  Each federate's share of that
    state lives in one ``_FederateHandle``, indexed by fid in ``_handles``
    and by name in ``_by_name``.
    """

    def __init__(self, tau_ticks: int):
        if tau_ticks <= 0:
            raise ValueError("tau_ticks must be positive")
        self.tau_ticks = tau_ticks
        self.current_slot = 0
        self._started = False
        self._handles: list[_FederateHandle] = []
        # Earliest cached lookahead, or -1 while any inbox holds messages:
        # no slot ending at or before it grants anyone.
        self._wake = -1
        self._by_name: dict[str, _FederateHandle] = {}
        self.published_total = 0
        self.delivered_total = 0
        self._digest = hashlib.sha256()

    # ------------------------------------------------------------ lifecycle

    def register_federate(self, name: str, endpoint: FederateEndpoint) -> int:
        """Join ``name``, driven through ``endpoint``; returns its fid."""
        if self._started:
            raise FederationStarted("cannot register after the federation started")
        if name in self._by_name:
            raise DuplicateName(name)
        handle = _FederateHandle(len(self._handles), endpoint)
        self._handles.append(handle)
        self._by_name[name] = handle
        return handle.fid

    # -------------------------------------------------------------- publish

    def publish(self, fid: int, msg: SimMessage, at_tick: int, to_name: str) -> None:
        """Queue a message for end-of-slot delivery.

        ``at_tick`` must lie inside the publishing federate's granted slot.
        """
        slot_start = self.current_slot * self.tau_ticks
        slot_end = slot_start + self.tau_ticks
        if not slot_start <= at_tick < slot_end:
            raise ProtocolViolation(
                f"federate {fid} published at tick {at_tick} outside granted "
                f"slot [{slot_start}, {slot_end})"
            )
        to = self._by_name.get(to_name)
        if to is None:
            raise ProtocolViolation(f"unknown destination federate {quote(to_name)}")
        # The same application message may cross the barrier once per hop
        # (request out, delivery notification back), but a single federate
        # republishing an id indicates a bookkeeping bug.  The check is exact
        # for every int id: (id >> 6, id & 63) is a one-to-one split, also for
        # negative and huge ids.  Dense ids cost one bit each; ids 64 or more
        # apart cost one word each.  Ids seen stay recorded for the whole run:
        # a forwarded id may come back to its first publisher, which must
        # still not publish it again, so no bound by messages in flight holds.
        mid = msg.id
        words = self._handles[fid].published
        word = words.get(mid >> 6, 0)
        bit = 1 << (mid & 63)
        if word & bit:
            raise ProtocolViolation(f"federate {fid} republished message id {mid}")
        words[mid >> 6] = word | bit
        to.pending.append((at_tick, mid, fid, msg))
        self.published_total += 1

    # -------------------------------------------------------------- advance

    def advance_slot(self) -> SyncReport:
        """Run one slot: grant, collect, deliver at the synchronization point."""
        slot = self.current_slot
        slot_end = (slot + 1) * self.tau_ticks
        if self._wake >= slot_end:
            # No inbox holds messages and no federate declared an event
            # before the slot end: the barrier passes with nothing to do.
            self.current_slot = slot + 1
            return _NOTHING_DELIVERED

        # The first slot always lands here: _wake starts at -1.
        self._started = True
        granted = []
        for h in self._handles:
            inbox = h.inbox
            if inbox or h.next_tick < slot_end:
                h.inbox = []
                h.endpoint.begin_step(slot, slot_end, inbox)
                granted.append(h)
        for h in granted:
            outbox, h.next_tick = h.endpoint.finish_step()
            for at_tick, to_name, msg in outbox:
                self.publish(h.fid, msg, at_tick, to_name)

        # Synchronization point: everything queued this slot is handed over,
        # ordered by (timestamp, id, publisher).  Nothing is ever held back.
        delivered = 0
        digest = self._digest
        for h in self._handles:
            queue = h.pending
            if not queue:
                continue
            queue.sort()
            h.pending = []
            delivered += len(queue)
            inbox = h.inbox
            for at_tick, msg_id, _fid, msg in queue:
                digest.update(b"%d|%d|%d|%d" % (slot, h.fid, msg_id, at_tick))
                inbox.append(msg)
        self.current_slot = slot + 1
        if delivered:
            self.delivered_total += delivered
            self._wake = -1
            return SyncReport(delivered)
        self._wake = min(h.next_tick for h in self._handles)
        return _NOTHING_DELIVERED

    def run(self, n_slots: int) -> FederationResult:
        if len(self._handles) < 2:
            raise ProtocolViolation("a federation needs at least 2 federates")
        t0 = time.perf_counter()
        # One call per slot, looked up on the class once, so a wrapper set
        # on Rti.advance_slot before the run sees every slot.
        advance_slot = self.advance_slot
        for _ in range(n_slots):
            advance_slot()
        return FederationResult(
            slots_run=n_slots,
            messages_published=self.published_total,
            messages_delivered=self.delivered_total,
            wallclock_s=time.perf_counter() - t0,
            trace_digest=self._digest.hexdigest(),
        )
