"""Application federate: polling, control commands, reliability accounting.

The management system polls every monitored endpoint on a fixed period with
a seeded random phase, and sends a burst of commands to randomly chosen
switches once per control period.  Each request opens an exchange; the
response closes it and fixes the application-side round-trip delay.
Each exchange is scored once, after the run, by ``metrics.exchange_score``;
the federate only records, and ``metrics`` builds the reports.

On receiving a rate-update notification the polling schedule is rebuilt:
the new period applies to every monitored node, with nodes spread evenly
across the period so the adapted load stays smooth.
"""

from __future__ import annotations

import heapq
import logging
import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from .config import ScenarioConfig
from .messages import MessageClass, MessageKind, NodeDescriptor, NodeKind, SimMessage
from .metrics import exchange_score
from .simtime import TICKS_PER_SECOND
from .topology import monitored_nodes

logger = logging.getLogger(__name__)


@dataclass(slots=True)
class Exchange:
    """A request/response pair between the management system and one node.

    ``delivered_tick`` is when the response reached the management system.
    ``d_comm_ticks`` is the network delay of both legs; while the exchange
    is open it holds the request leg's alone, and it is None when a leg has
    no network timestamps or no response came.  ``score`` is set once by
    ``ITFederate.finalize_run`` from ``metrics.exchange_score``: 1 when the
    round trip met the class delay limit, 0 when it did not, and None when
    the run ended before that was decided.
    """

    id: int
    msg_class: MessageClass
    node: int
    created_tick: int
    delivered_tick: int | None = None
    d_comm_ticks: int | None = None
    score: int | None = None


_CLASSES = tuple(MessageClass)
_KINDS = tuple(MessageKind)
_CLASS_CODE = {cls: code for code, cls in enumerate(_CLASSES)}
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}


class CommLegs(Sequence):
    """Completed message legs, kept as columns and read as tuples.

    Each item is (class, kind, d_it_ticks, d_comm_ticks, delivered_comm_tick).
    The view is read-only; ``ITFederate`` appends to the columns: class and
    kind as their index in ``MessageClass`` and ``MessageKind``, ticks as
    64-bit ints, about 26 bytes a leg.
    """

    __slots__ = ("classes", "kinds", "d_it", "d_comm", "delivered")

    def __init__(self):
        self.classes = array("b")
        self.kinds = array("b")
        self.d_it = array("q")
        self.d_comm = array("q")
        self.delivered = array("q")

    def __len__(self) -> int:
        return len(self.classes)

    def __getitem__(self, i: int) -> tuple[MessageClass, MessageKind, int, int, int]:
        return (_CLASSES[self.classes[i]], _KINDS[self.kinds[i]],
                self.d_it[i], self.d_comm[i], self.delivered[i])

    def __iter__(self):
        return zip(map(_CLASSES.__getitem__, self.classes), map(_KINDS.__getitem__, self.kinds),
                   self.d_it, self.d_comm, self.delivered)


class ITFederate:
    """The information-system perspective of the federation."""

    name = "it"
    peer_name = "comm"

    def __init__(self, cfg: ScenarioConfig, nodes: list[NodeDescriptor]):
        self.cfg = cfg
        self._tau = cfg.tau_ticks
        self._interval_ticks = cfg.interval_ticks
        self._limit_ticks = {cls: cfg.delay_limit_ticks(cls) for cls in MessageClass}

        self._dms_id = next(n.id for n in nodes if n.kind is NodeKind.DMS)
        self._kind_by_id = {n.id: n.kind for n in nodes}
        # Requests reach monitored nodes and commands reach switches.
        self._reply_bytes = {kind: cfg.response_payload_bytes(kind)
                             for kind in (*cfg.monitored_counts(), NodeKind.SWITCH)}
        self.monitored = monitored_nodes(nodes, cfg)
        self._switch_ids = [n.id for n in nodes if n.kind is NodeKind.SWITCH]

        self._next_id = 2  # even ids; the network federate uses odd ones
        self.poll_period_ticks = max(1, round(TICKS_PER_SECOND / cfg.lambda_m_hz))
        self._poisson = cfg.arrival_model == "poisson"
        self._arrival_rng = random.Random(cfg.derive_seed("poll-arrivals"))

        # (due_tick, node order, node id); order index keeps ties deterministic.
        self._poll_heap: list[tuple[int, int, int]] = []
        phase_rng = random.Random(cfg.derive_seed("poll-phase"))
        for order, node in enumerate(self.monitored):
            if self._poisson:
                due = self._poisson_gap()
            else:
                due = phase_rng.randrange(self.poll_period_ticks)
            self._poll_heap.append((due, order, node.id))
        heapq.heapify(self._poll_heap)

        self._control_rng = random.Random(cfg.derive_seed("control-targets"))
        self._control_period = max(1, round(cfg.control_burst_size / cfg.lambda_c_hz * TICKS_PER_SECOND))
        self._next_control = self._control_period if self._switch_ids else 1 << 62

        self._open: dict[int, Exchange] = {}
        # Every exchange, in creation order until ``finalize_run`` sorts it.
        self.exchange_rows: list[Exchange] = []
        self.comm_legs = CommLegs()

    # ------------------------------------------------------------- traffic

    def _poisson_gap(self) -> int:
        return max(1, round(self._arrival_rng.expovariate(1.0) * self.poll_period_ticks))

    def _alloc_id(self) -> int:
        mid = self._next_id
        self._next_id += 2
        return mid

    def generate_slot_traffic(self, slot: int) -> list[SimMessage]:
        """Requests and commands falling due inside the granted slot."""
        slot_end = (slot + 1) * self._tau
        out: list[SimMessage] = []
        heap = self._poll_heap
        while heap and heap[0][0] < slot_end:
            due, order, node_id = heapq.heappop(heap)
            req = SimMessage(
                id=self._alloc_id(),
                msg_class=MessageClass.MONITORING,
                kind=MessageKind.REQUEST,
                src=self._dms_id,
                dst=node_id,
                payload_bytes=self.cfg.payload_poll_request_bytes,
                created_tick=due,
            )
            self._open_exchange(req)
            out.append(req)
            gap = self._poisson_gap() if self._poisson else self.poll_period_ticks
            heapq.heappush(heap, (due + gap, order, node_id))
        while self._next_control < slot_end:
            due = self._next_control
            burst = min(self.cfg.control_burst_size, len(self._switch_ids))
            for switch_id in self._control_rng.sample(self._switch_ids, burst):
                cmd = SimMessage(
                    id=self._alloc_id(),
                    msg_class=MessageClass.CONTROL,
                    kind=MessageKind.CONTROL_COMMAND,
                    src=self._dms_id,
                    dst=switch_id,
                    payload_bytes=self.cfg.payload_control_command_bytes,
                    created_tick=due,
                )
                self._open_exchange(cmd)
                out.append(cmd)
            self._next_control += self._control_period
        return out

    def _open_exchange(self, request: SimMessage) -> None:
        record = Exchange(request.id, request.msg_class, request.dst, request.created_tick)
        self._open[request.id] = record
        self.exchange_rows.append(record)

    # ------------------------------------------------------------ delivery

    def on_deliver(self, msg: SimMessage, now_tick: int) -> list[SimMessage]:
        """Handle a message reaching its application endpoint; maybe reply.

        No message is referenced after this call: an exchange keeps only
        the ticks it reports.
        """
        if msg.kind is MessageKind.RATE_UPDATE:
            if msg.poll_period_ticks:
                self._apply_rate_update(msg.poll_period_ticks, now_tick)
            return []
        d_comm = self._record_leg(msg, now_tick)
        if msg.dst == self._dms_id:
            record = self._open.pop(msg.correlation_id, None)
            if record is None:
                logger.warning("response %d has no open request %s", msg.id, msg.correlation_id)
                return []
            record.delivered_tick = now_tick
            if record.d_comm_ticks is not None:
                record.d_comm_ticks = None if d_comm is None else record.d_comm_ticks + d_comm
            return []
        # Request or command arriving at a node: keep its network delay and
        # answer.
        record = self._open.get(msg.id)
        if record is not None:
            record.d_comm_ticks = d_comm
        reply_kind = (
            MessageKind.RESPONSE if msg.kind is MessageKind.REQUEST else MessageKind.CONTROL_ACK
        )
        reply = SimMessage(
            id=self._alloc_id(),
            msg_class=msg.msg_class,
            kind=reply_kind,
            src=msg.dst,
            dst=msg.src,
            payload_bytes=self._reply_bytes[self._kind_by_id[msg.dst]],
            created_tick=now_tick,
            correlation_id=msg.id,
        )
        return [reply]

    def _record_leg(self, msg: SimMessage, now_tick: int) -> int | None:
        """Log a completed leg; return its network delay, None without one."""
        sent, delivered = msg.sent_comm_tick, msg.delivered_comm_tick
        if sent is None or delivered is None:
            return None
        d_comm = delivered - sent
        legs = self.comm_legs
        legs.classes.append(_CLASS_CODE[msg.msg_class])
        legs.kinds.append(_KIND_CODE[msg.kind])
        legs.d_it.append(now_tick - msg.created_tick)
        legs.d_comm.append(d_comm)
        legs.delivered.append(delivered)
        return d_comm

    def _apply_rate_update(self, period_ticks: int, now_tick: int) -> None:
        """Rebuild the polling schedule at the adapted period.

        Nodes are restarted evenly spread over the new period rather than
        keeping their old phases, which would replay the old burst pattern.
        """
        self.poll_period_ticks = period_ticks
        n = len(self.monitored)
        heap = []
        for order, node in enumerate(self.monitored):
            if self._poisson:
                due = now_tick + self._poisson_gap()
            else:
                due = now_tick + ((order + 1) * period_ticks) // n
            heap.append((due, order, node.id))
        heapq.heapify(heap)
        self._poll_heap = heap

    # ------------------------------------------------------------ stepping

    def step(self, slot: int, slot_end_tick: int, inbox: list[SimMessage]) -> tuple[list[tuple[int, SimMessage]], int]:
        now = slot * self._tau
        out: list[tuple[int, SimMessage]] = []
        for msg in inbox:
            for reply in self.on_deliver(msg, now):
                out.append((reply.created_tick, reply))
        if (self._poll_heap and self._poll_heap[0][0] < slot_end_tick) or self._next_control < slot_end_tick:
            for msg in self.generate_slot_traffic(slot):
                out.append((msg.created_tick, msg))
        return out, self.next_event_tick()

    def next_event_tick(self) -> int:
        """Earliest tick whose slot must be granted even with an empty inbox.

        That is the next poll or control burst, whichever comes first: a step
        in any earlier slot with an empty inbox would emit nothing and change
        no state.  Scoring waits for ``finalize_run``, so no slot is granted
        for bookkeeping.
        """
        tick = self._next_control
        if self._poll_heap and self._poll_heap[0][0] < tick:
            return self._poll_heap[0][0]
        return tick

    # ----------------------------------------------------------- reporting

    def finalize_run(self, end_tick: int) -> None:
        """Score every exchange once, after the run ended at ``end_tick``.

        ``exchange_rows`` then lists exchanges by creation interval, then
        class in ``MessageClass`` order, then creation order.
        """
        for record in self._open.values():
            record.d_comm_ticks = None  # the response leg never completed
        limits = self._limit_ticks
        for rec in self.exchange_rows:
            d_it = None if rec.delivered_tick is None else rec.delivered_tick - rec.created_tick
            rec.score = exchange_score(d_it, rec.created_tick, limits[rec.msg_class], end_tick)
        w = self._interval_ticks
        # A stable sort keeps creation order within each (interval, class).
        self.exchange_rows.sort(key=lambda rec: (rec.created_tick // w, _CLASS_CODE[rec.msg_class]))
