"""A reference model of the comm federate, written for clarity, not speed.

It restates the network rules of ``gridcosim.netfed`` and ``gridcosim.links``
and shares no code with them, so that a rewrite of the federate is judged
against something other than its own past output:

* control rides DMR; monitoring rides its node's nearest LTE station (the
  lowest index on a tie) while LTE is up, and DMR otherwise;
* a message is cut into segments of at most ``mss_bytes`` of payload plus a
  header; a served data segment reaches the far end one access latency
  later, and its ACK then enters the same link; the message is delivered
  one access latency after its last ACK is served;
* a link serves one frame at a time, for ceil(bits / capacity) ticks, from
  a FIFO queue or a self-clocked fair queue (SCFQ) over the two classes;
* at ``lte_fail_at_s`` every LTE link goes down and loses the messages of its
  queued and in-service frames, and an ACK that comes back to a down link
  loses its message; at ``lte_restore_at_s`` LTE is up again.

Time jumps to the earliest pending event, found by scanning the model's own
list and every link's; there is no heap.  At one tick, events run in this
order: the queue sample that closes the slot ending there, link state,
ingress, service completion, ACK arrival, delivery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from gridcosim.config import ScenarioConfig, exchange_wire_bits
from gridcosim.messages import MessageClass, NodeDescriptor, NodeKind, SimMessage

#: The package clock (10 µs ticks), restated rather than imported.
TICKS_PER_SECOND = 100_000

SAMPLE, LINK_STATE, INGRESS, COMPLETION, ACK_ARRIVAL, DELIVERY = range(6)


def to_ticks(seconds: float) -> int:
    return round(seconds * TICKS_PER_SECOND)


@dataclass
class Frame:
    msg: SimMessage
    size: int  # bytes on the wire
    is_ack: bool
    last: bool  # of the message's segments
    seq: int  # creation order: the SCFQ tie-break
    vfinish: float = 0.0


class Link:
    def __init__(self, name: str, capacity_bps: int, latency: int, weights, n_intervals: int):
        self.name, self.capacity_bps, self.latency = name, capacity_bps, latency
        self.weights = weights  # None for FIFO, else the SCFQ weight per class
        self.up = True
        self.queue: list[Frame] = []
        self.in_service = None  # (frame, start tick)
        self.events = []  # pending (tick, priority, seq, kind, payload)
        self.finish = dict.fromkeys(MessageClass, 0.0)  # SCFQ finish tag per class
        self.vtime = 0.0  # SCFQ virtual time: the tag of the frame last put in service
        self.offered, self.served, self.busy = [0] * n_intervals, [0] * n_intervals, [0] * n_intervals
        self.samples = [(0, 0)] * n_intervals

    def enqueue(self, frame: Frame) -> None:
        if self.weights is not None:
            cls = frame.msg.msg_class
            frame.vfinish = max(self.finish[cls], self.vtime) + frame.size * 8 / self.weights[cls]
            self.finish[cls] = frame.vfinish
        self.queue.append(frame)

    def dequeue(self) -> Frame:
        if self.weights is None:
            return self.queue.pop(0)
        heads = [next(f for f in self.queue if f.msg.msg_class is cls)
                 for cls in {f.msg.msg_class for f in self.queue}]
        frame = min(heads, key=lambda f: (f.vfinish, f.seq))
        self.queue.remove(frame)
        self.vtime = frame.vfinish
        return frame

    def queued_bytes(self, cls: MessageClass) -> int:
        return sum(f.size for f in self.queue if f.msg.msg_class is cls)


class ReferenceNet:
    def __init__(self, cfg: ScenarioConfig, nodes: list[NodeDescriptor]):
        self.cfg = cfg
        self.interval = cfg.interval_ticks
        n_intervals = -(-cfg.duration_ticks // self.interval)
        weights = None if cfg.qos == "fifo" else {
            MessageClass.MONITORING: cfg.wfq_weight_monitoring, MessageClass.CONTROL: cfg.wfq_weight_control}
        self.lte = [Link(f"lte-{i}", cfg.lte_bs_capacity_bps, to_ticks(cfg.access_latency_lte_s),
                         weights, n_intervals) for i in range(cfg.lte_bs_count)]
        self.dmr = Link("dmr", cfg.dmr_capacity_bps, to_ticks(cfg.access_latency_dmr_s), weights, n_intervals)
        self.links = [*self.lte, self.dmr]

        self.dms = next(n.id for n in nodes if n.kind is NodeKind.DMS)
        self.monitored = [n for n in nodes if n.kind in cfg.monitored_counts()]
        stations = [n for n in nodes if n.kind is NodeKind.LTE_BS]
        self.nearest = {}  # node id -> index of its nearest station
        for node in nodes:
            for i, bs in enumerate(stations):
                d2 = (bs.x_km - node.x_km) ** 2 + (bs.y_km - node.y_km) ** 2
                if i == 0 or d2 < best:
                    best, self.nearest[node.id] = d2, i

        self.events = []  # pending ingress, link-state and sample events
        self.seq = 0
        self.received: list[SimMessage] = []
        self.delivered_at: dict[int, int] = {}  # message id -> delivery tick
        self.lost: set[int] = set()
        self.rate_updates: list[tuple[int, int]] = []  # (tick, poll period)

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def schedule(self, owner, tick: int, priority: int, kind: str, payload=None) -> None:
        owner.events.append((tick, priority, self.next_seq(), kind, payload))

    def in_network(self, msg: SimMessage) -> bool:
        return msg.id not in self.delivered_at and msg.id not in self.lost

    def route(self, msg: SimMessage) -> Link:
        endpoint = msg.dst if msg.dst != self.dms else msg.src
        if msg.msg_class is MessageClass.MONITORING and endpoint in self.nearest:
            station = self.lte[self.nearest[endpoint]]
            if station.up:
                return station
        return self.dmr

    def run(self, arrivals: list[tuple[int, SimMessage]], n_slots: int) -> None:
        """Hand each ``(slot, message)`` pair, in order, to the network at its
        slot's start, and run the network to the end of slot ``n_slots - 1``."""
        end = n_slots * self.cfg.tau_ticks
        for slot, msg in arrivals:
            self.schedule(self, slot * self.cfg.tau_ticks, INGRESS, "ingress", msg)
        if self.cfg.lte_fail_at_s is not None:
            self.schedule(self, to_ticks(self.cfg.lte_fail_at_s), LINK_STATE, "fail")
        if self.cfg.lte_restore_at_s is not None:
            self.schedule(self, to_ticks(self.cfg.lte_restore_at_s), LINK_STATE, "restore")
        for k in range(1, end // self.interval + 1):
            self.schedule(self, k * self.interval, SAMPLE, "sample", k - 1)
        while True:
            pending = [(event, owner) for owner in [self, *self.links] for event in owner.events]
            if not pending:
                return
            event, owner = min(pending, key=lambda p: p[0][:3])
            tick, priority, _seq, kind, payload = event
            if tick > end or (tick == end and priority != SAMPLE):
                return
            owner.events.remove(event)
            getattr(self, "on_" + kind)(tick, payload, owner)

    # ------------------------------------------------------------ handlers

    def offer(self, link: Link, tick: int, frame: Frame) -> None:
        link.offered[tick // self.interval] += frame.size * 8
        link.enqueue(frame)
        if link.in_service is None:
            self.start_service(link, tick)

    def start_service(self, link: Link, tick: int) -> None:
        if link.queue:
            frame = link.dequeue()
            link.in_service = (frame, tick)
            ticks = -(-frame.size * 8 * TICKS_PER_SECOND // link.capacity_bps)  # ceil
            self.schedule(link, tick + ticks, COMPLETION, "completion")

    def on_ingress(self, tick: int, msg: SimMessage, _owner) -> None:
        self.received.append(msg)
        link = self.route(msg)
        mss = self.cfg.mss_bytes
        for first in range(0, msg.payload_bytes, mss):
            size = min(mss, msg.payload_bytes - first) + self.cfg.header_bytes
            last = first + mss >= msg.payload_bytes
            self.offer(link, tick, Frame(msg, size, False, last, self.next_seq()))

    def on_completion(self, tick: int, _payload, link: Link) -> None:
        frame, start = link.in_service
        link.in_service = None
        link.served[tick // self.interval] += frame.size * 8
        t = start
        while t < tick:  # busy time, split at interval boundaries
            stop = min(tick, (t // self.interval + 1) * self.interval)
            link.busy[t // self.interval] += stop - t
            t = stop
        if not frame.is_ack:
            self.schedule(link, tick + link.latency, ACK_ARRIVAL, "ack_arrival", frame)
        elif frame.last:
            self.schedule(link, tick + link.latency, DELIVERY, "delivery", frame.msg)
        self.start_service(link, tick)

    def on_ack_arrival(self, tick: int, data: Frame, link: Link) -> None:
        if not self.in_network(data.msg):
            return
        if link.up:
            self.offer(link, tick, Frame(data.msg, self.cfg.ack_bytes, True, data.last, self.next_seq()))
        else:
            self.lost.add(data.msg.id)

    def on_delivery(self, tick: int, msg: SimMessage, _link) -> None:
        self.delivered_at[msg.id] = tick

    def on_fail(self, tick: int, _payload, _owner) -> None:
        for link in self.lte:
            link.up = False
            if link.in_service is not None:
                link.queue.append(link.in_service[0])
                link.in_service = None
                link.events = [e for e in link.events if e[1] != COMPLETION]
            self.lost.update(frame.msg.id for frame in link.queue)
            link.queue = []
        if self.cfg.qos == "wfq-ra":
            cfg = self.cfg
            unit_bits = max(exchange_wire_bits(cfg, cfg.response_payload_bytes(kind))
                            for kind in {n.kind for n in self.monitored})
            rate_hz = (1.0 - cfg.alpha_e) * cfg.dmr_capacity_bps / (len(self.monitored) * unit_bits)
            self.rate_updates.append((tick, max(1, math.ceil(TICKS_PER_SECOND / rate_hz))))

    def on_restore(self, _tick: int, _payload, _owner) -> None:
        for link in self.lte:
            link.up = True

    def on_sample(self, _tick: int, interval: int, _owner) -> None:
        for link in self.links:
            link.samples[interval] = (link.queued_bytes(MessageClass.MONITORING),
                                      link.queued_bytes(MessageClass.CONTROL))

    def conservation(self) -> dict[MessageClass, dict[str, int]]:
        keys = ("received", "delivered", "lost_failure", "dropped_noroute", "in_flight_at_end")
        counts = {cls: dict.fromkeys(keys, 0) for cls in MessageClass}
        for msg in self.received:
            row = counts[msg.msg_class]
            row["received"] += 1
            if msg.id in self.delivered_at:
                row["delivered"] += 1
            elif msg.id in self.lost:
                row["lost_failure"] += 1
            else:
                row["in_flight_at_end"] += 1
        return counts
