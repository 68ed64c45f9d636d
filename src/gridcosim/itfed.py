"""Application federate: polling, control commands, reliability accounting.

The management system polls every monitored endpoint on a fixed period with
a seeded random phase, and sends a burst of commands to randomly chosen
switches once per control period.  Each request opens an exchange; the
response closes it and fixes the application-side round-trip delay.
Exchanges and completed legs are kept as ``array`` columns, with no Python
object per record; the federate collects them in flat lists and moves them
into the columns a block at a time.  Each exchange is scored once, after
the run, by ``metrics.exchange_scores``; the federate only records, and
``metrics`` builds the reports.

On receiving a rate-update notification the polling schedule is rebuilt:
the new period applies to every monitored node, with nodes spread evenly
across the period so the adapted load stays smooth.
"""

from __future__ import annotations

import heapq
import logging
import random
from array import array

from .config import ScenarioConfig
from .messages import (_CLASS_CODE, _CLASSES, _KIND_CODE, _KINDS, MISSING, MessageClass, MessageKind,
                       NodeDescriptor, NodeKind, SimMessage)
from .metrics import exchange_scores
from .simtime import TICKS_PER_SECOND
from .topology import monitored_nodes

logger = logging.getLogger(__name__)

_MONITORING = _CLASS_CODE[MessageClass.MONITORING]
_CONTROL = _CLASS_CODE[MessageClass.CONTROL]
# Records collected before they move into their columns: an array filled
# from a whole list costs less than half as much per value as ``append``.
_BLOCK = 256


def _move(flat: list[int], columns: tuple[array, ...]) -> None:
    """Append records held flat, one value per column in turn, to the columns."""
    for i, column in enumerate(columns):
        column.fromlist(flat[i::len(columns)])
    flat.clear()


class Exchanges:
    """Every exchange, as columns in creation order.

    ``ITFederate`` fills the columns, which are complete once its
    ``finalize_run`` has run: id, node and ticks as 64-bit ints, class as its
    code (``messages._CLASS_CODE``) and score as bytes, about 42 bytes an
    exchange.  Ids rise along the columns and creation intervals never
    decrease.  ``d_comm`` is the network delay of both legs; a score is 1
    when the round trip met its class delay limit, else 0.  ``MISSING`` (-1)
    stands for no response, no network timestamps on a leg, or a score the
    run ended before deciding.
    """

    __slots__ = ("ids", "classes", "nodes", "created", "delivered", "d_comm", "scores")

    def __init__(self):
        self.ids = array("q")
        self.classes = array("b")
        self.nodes = array("q")
        self.created = array("q")
        self.delivered = array("q")
        self.d_comm = array("q")
        self.scores = array("b")

    def __len__(self) -> int:
        return len(self.ids)


class CommLegs:
    """Completed message legs, kept as columns and read as tuples.

    Each item is (class, kind, d_it_ticks, d_comm_ticks, delivered_comm_tick).
    ``ITFederate`` fills the columns, which are complete once its
    ``finalize_run`` has run: class and kind as their codes
    (``messages._CLASS_CODE``, ``_KIND_CODE``), ticks as 64-bit ints, about
    26 bytes a leg.  Legs are in delivery order, comm delivery ticks never
    decreasing: the comm federate publishes each message at its delivery
    tick, and the IT federate is granted the slot after any that delivered
    to it, with that slot's deliveries in its inbox sorted by tick.
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

    def __iter__(self):
        return zip(map(_CLASSES.__getitem__, self.classes), map(_KINDS.__getitem__, self.kinds),
                   self.d_it, self.d_comm, self.delivered)


class ITFederate:
    """The information-system perspective of the federation."""

    name = "it"

    def __init__(self, cfg: ScenarioConfig, nodes: list[NodeDescriptor]):
        self.cfg = cfg
        self._tau = cfg.tau_ticks
        self._limit_ticks = {cls: cfg.delay_limit_ticks(cls) for cls in MessageClass}

        self._dms_id = next(n.id for n in nodes if n.kind is NodeKind.DMS)
        # Requests reach monitored nodes and commands reach switches: node id to its reply's bytes.
        reply_bytes = {kind: cfg.response_payload_bytes(kind) for kind in (*cfg.monitored_counts(), NodeKind.SWITCH)}
        self._reply_bytes = {n.id: reply_bytes[n.kind] for n in nodes if n.kind in reply_bytes}
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

        # Every exchange, in creation order, and every completed leg.
        self.exchange_rows = Exchanges()
        self.comm_legs = CommLegs()
        # Records not yet in their columns, held flat: id, class code, node
        # and created tick of each new exchange; row, delivered tick and
        # d_comm of each answered one; the five fields of each leg.
        self._opened: list[int] = []
        self._answered: list[int] = []
        self._legs: list[int] = []
        self._rows = 0  # exchanges opened
        # Open exchange id to its row, and to its request leg's network delay.
        self._open: dict[int, int] = {}
        self._request_d_comm: dict[int, int] = {}

    # ------------------------------------------------------------- traffic

    def _poisson_gap(self) -> int:
        return max(1, round(self._arrival_rng.expovariate(1.0) * self.poll_period_ticks))

    def _alloc_id(self) -> int:
        mid = self._next_id
        self._next_id += 2
        return mid

    def generate_slot_traffic(self, slot_end: int, out: list[tuple[int, str, SimMessage]]) -> None:
        """Append the requests and commands falling due before ``slot_end`` to ``out``."""
        heap = self._poll_heap
        while heap and heap[0][0] < slot_end:
            due, order, node_id = heapq.heappop(heap)
            mid = self._alloc_id()
            req = SimMessage(mid, MessageClass.MONITORING, MessageKind.REQUEST, self._dms_id, node_id,
                             self.cfg.payload_poll_request_bytes, due)
            self._open_exchange(mid, _MONITORING, node_id, due)
            out.append((due, "comm", req))
            gap = self._poisson_gap() if self._poisson else self.poll_period_ticks
            heapq.heappush(heap, (due + gap, order, node_id))
        while self._next_control < slot_end:
            due = self._next_control
            burst = min(self.cfg.control_burst_size, len(self._switch_ids))
            for switch_id in self._control_rng.sample(self._switch_ids, burst):
                mid = self._alloc_id()
                cmd = SimMessage(mid, MessageClass.CONTROL, MessageKind.CONTROL_COMMAND, self._dms_id,
                                 switch_id, self.cfg.payload_control_command_bytes, due)
                self._open_exchange(mid, _CONTROL, switch_id, due)
                out.append((due, "comm", cmd))
            self._next_control += self._control_period

    def _open_exchange(self, mid: int, code: int, node: int, created: int) -> None:
        if len(self._opened) >= 4 * _BLOCK:
            self._store_exchanges()
        self._opened += (mid, code, node, created)
        self._open[mid] = self._rows
        self._rows += 1

    def _store_exchanges(self) -> None:
        """Move the collected exchanges and answers into ``exchange_rows``."""
        rows = self.exchange_rows
        missing = array("q", [MISSING]) * (len(self._opened) // 4)
        _move(self._opened, (rows.ids, rows.classes, rows.nodes, rows.created))
        rows.delivered.extend(missing)
        rows.d_comm.extend(missing)
        answered = iter(self._answered)
        for row, delivered, d_comm in zip(answered, answered, answered):
            rows.delivered[row] = delivered
            rows.d_comm[row] = d_comm
        self._answered.clear()

    # ------------------------------------------------------------ delivery

    def on_deliver(self, msg: SimMessage, now_tick: int) -> SimMessage | None:
        """Handle a message reaching its application endpoint; return its reply or None.

        No message is referenced after this call: an exchange keeps only
        the ticks it reports.
        """
        if msg.kind is MessageKind.RATE_UPDATE:
            if msg.poll_period_ticks:
                self._apply_rate_update(msg.poll_period_ticks, now_tick)
            return None
        d_comm = self._record_leg(msg, now_tick)
        if msg.dst == self._dms_id:
            row = self._open.pop(msg.correlation_id, None)
            if row is None:
                logger.warning("response %d has no open request %s", msg.id, msg.correlation_id)
                return None
            request_d_comm = self._request_d_comm.pop(msg.correlation_id, None)
            both = MISSING if request_d_comm is None or d_comm is None else request_d_comm + d_comm
            self._answered += (row, now_tick, both)
            return None
        # Request or command arriving at a node: keep its network delay and
        # answer.
        if d_comm is not None and msg.id in self._open:
            self._request_d_comm[msg.id] = d_comm
        reply_kind = (
            MessageKind.RESPONSE if msg.kind is MessageKind.REQUEST else MessageKind.CONTROL_ACK
        )
        reply = SimMessage(self._alloc_id(), msg.msg_class, reply_kind, msg.dst, msg.src,
                           self._reply_bytes[msg.dst], now_tick,
                           correlation_id=msg.id)
        return reply

    def _record_leg(self, msg: SimMessage, now_tick: int) -> int | None:
        """Log a completed leg; return its network delay, None without one."""
        sent, delivered = msg.sent_comm_tick, msg.delivered_comm_tick
        if sent is None or delivered is None:
            return None
        d_comm = delivered - sent
        if len(self._legs) >= 5 * _BLOCK:
            self._store_legs()
        self._legs += (_CLASS_CODE[msg.msg_class], _KIND_CODE[msg.kind], now_tick - msg.created_tick,
                       d_comm, delivered)
        return d_comm

    def _store_legs(self) -> None:
        legs = self.comm_legs
        _move(self._legs, (legs.classes, legs.kinds, legs.d_it, legs.d_comm, legs.delivered))

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

    def step(self, slot: int, slot_end_tick: int, inbox: list[SimMessage]) -> tuple[list[tuple[int, str, SimMessage]], int]:
        now = slot * self._tau
        out: list[tuple[int, str, SimMessage]] = []
        for msg in inbox:
            reply = self.on_deliver(msg, now)
            if reply is not None:
                out.append((now, "comm", reply))
        self.generate_slot_traffic(slot_end_tick, out)
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
        """Move the collected records into their columns and score every
        exchange once, after the run ended at ``end_tick``; the rows keep
        their creation order."""
        self._store_exchanges()
        self._store_legs()
        # An exchange still open keeps delivered and d_comm ``MISSING``: its
        # response leg never completed.
        rows = self.exchange_rows
        limits = [self._limit_ticks[cls] for cls in _CLASSES]
        rows.scores = exchange_scores(rows.classes, rows.created, rows.delivered, limits, end_tick)
