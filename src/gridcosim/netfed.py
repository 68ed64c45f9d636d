"""Communication federate: routing, queueing, transport overhead, the LTE outage.

Control traffic rides the dedicated DMR access point; monitoring traffic
rides its node's nearest LTE base station and falls back to DMR while LTE
is down.  The scenario's one outage takes every base station down at
``lte_fail_at_s`` and, optionally, brings them back at ``lte_restore_at_s``;
the DMR channel never fails.  Messages are segmented with per-segment
headers, each data segment is followed by a reverse-direction
acknowledgement on the same link, and a message counts as delivered when its
last segment's acknowledgement has come back.

With the rate-adapting discipline, the LTE failure additionally emits an
application-layer notification telling the management system the polling
period that fits the remaining DMR budget.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from .config import ScenarioConfig, exchange_wire_bits
from .errors import ValidationError
from .links import FifoQueue, LinkModel, TransportFrame, WfqQueue, segment_sizes
from .messages import (
    MessageClass,
    MessageKind,
    NodeDescriptor,
    NodeKind,
    SimMessage,
)
from .simtime import TICKS_PER_SECOND, ticks_from_seconds
from .topology import monitored_nodes

# Event priorities: state changes happen before service completions, which
# happen before new frame arrivals, which happen before message hand-off.
_PRIO_LINK_STATE = 0
_PRIO_COMPLETION = 1
_PRIO_ARRIVAL = 2
_PRIO_DELIVERY = 3


def rate_adaptation_rate(cfg: ScenarioConfig, n_monitored: int, exchange_bits: int) -> float:
    """Per-node monitoring rate that fits the DMR budget after failover.

    Keeps the total offered monitoring load at or below
    (1 - alpha_e) * dmr_capacity.
    """
    if exchange_bits <= 0:
        raise ValidationError("exchange_bits", "must be positive")
    if n_monitored <= 0:
        raise ValidationError("n_monitored", "must be positive")
    usable_bps = (1.0 - cfg.alpha_e) * cfg.dmr_capacity_bps
    return usable_bps / (n_monitored * exchange_bits)


class NetFederate:
    """The communication perspective of the federation."""

    name = "comm"
    peer_name = "it"

    def __init__(self, cfg: ScenarioConfig, nodes: list[NodeDescriptor]):
        self.cfg = cfg
        self._tau = cfg.tau_ticks
        self._duration = cfg.duration_ticks
        self._interval_ticks = cfg.interval_ticks

        self._dms_id = next(n.id for n in nodes if n.kind is NodeKind.DMS)
        dmr_nodes = [n for n in nodes if n.kind is NodeKind.DMR_AP]
        if len(dmr_nodes) != 1:
            raise ValidationError("topology", "exactly one DMR access point required")
        self._dmr_ap_id = dmr_nodes[0].id
        self._monitored = monitored_nodes(nodes, cfg)

        self._lte_links, self._dmr_link = self._build_links(cfg)
        self.links = [*self._lte_links, self._dmr_link]
        # Monitored node id -> the link of its nearest LTE station, the lowest
        # index on a tie; empty when there is no station.
        stations = [n for n in nodes if n.kind is NodeKind.LTE_BS]
        self._nearest_lte: dict[int, LinkModel] = {}
        if stations:
            for node in self._monitored:
                index = min(range(len(stations)), key=lambda i: (
                    (stations[i].x_km - node.x_km) ** 2 + (stations[i].y_km - node.y_km) ** 2, i))
                self._nearest_lte[node.id] = self._lte_links[index]

        # (tick, priority, seq, handler, payload); the event runs handler(tick, payload).
        self._events: list[tuple[int, int, int, Callable, object]] = []
        self._eseq = 0
        self._fseq = 0
        self._next_msg_id = 1  # odd ids; the application federate uses even ones
        # Messages in the network by id, from ingress until delivered or lost.
        self._transfers: dict[int, SimMessage] = {}
        self._sizes_by_payload: dict[int, list[int]] = {}
        self._out: list[tuple[int, SimMessage]] = []
        self._next_sample_tick = self._interval_ticks - 1
        self.adapted_period_ticks: int | None = None

        self.received = dict.fromkeys(MessageClass, 0)
        self.delivered = dict.fromkeys(MessageClass, 0)
        self.lost_failure = dict.fromkeys(MessageClass, 0)

        # The outage; events beyond the simulated horizon never fire.
        if cfg.lte_fail_at_s is not None:
            self._push_event(ticks_from_seconds(cfg.lte_fail_at_s), _PRIO_LINK_STATE, self._on_lte_failure, None)
        if cfg.lte_restore_at_s is not None:
            self._push_event(ticks_from_seconds(cfg.lte_restore_at_s), _PRIO_LINK_STATE, self._on_lte_restore, None)

    # --------------------------------------------------------------- setup

    def _build_links(self, cfg: ScenarioConfig) -> tuple[list[LinkModel], LinkModel]:
        """The LTE base-station links and the DMR link."""
        def make_queue():
            if cfg.qos == "fifo":
                return FifoQueue()
            return WfqQueue({
                MessageClass.MONITORING: cfg.wfq_weight_monitoring,
                MessageClass.CONTROL: cfg.wfq_weight_control,
            })

        lte_latency = ticks_from_seconds(cfg.access_latency_lte_s, key="access_latency_lte_s")
        dmr_latency = ticks_from_seconds(cfg.access_latency_dmr_s, key="access_latency_dmr_s")
        n_intervals = -(-cfg.duration_ticks // cfg.interval_ticks)
        lte = [
            LinkModel(f"lte-{i}", cfg.lte_bs_capacity_bps, lte_latency, make_queue(), n_intervals)
            for i in range(cfg.lte_bs_count)
        ]
        return lte, LinkModel("dmr", cfg.dmr_capacity_bps, dmr_latency, make_queue(), n_intervals)

    # ------------------------------------------------------------- routing

    def route(self, msg: SimMessage) -> LinkModel:
        """Pick the link carrying this message.

        Only LTE fails, all of it at once, so monitoring rides its node's
        nearest station while that is up and DMR otherwise (or when there
        is no station); control always rides DMR.
        """
        if msg.msg_class is MessageClass.MONITORING:
            lte = self._nearest_lte.get(msg.dst if msg.dst != self._dms_id else msg.src)
            if lte is not None and lte.up:
                return lte
        return self._dmr_link

    # ---------------------------------------------------------- federation

    def step(self, slot: int, slot_end_tick: int, inbox: list[SimMessage]) -> tuple[list[tuple[int, SimMessage]], bool]:
        now = slot * self._tau
        self._out = []
        events = self._events

        # Link state changes scheduled exactly at the slot boundary take
        # effect before this slot's arrivals are routed.
        while events and events[0][0] == now and events[0][1] == _PRIO_LINK_STATE:
            tick, _prio, _seq, handler, payload = heapq.heappop(events)
            handler(tick, payload)
        for msg in inbox:
            self._ingress(msg, now)
        while events and events[0][0] < slot_end_tick:
            tick, _prio, _seq, handler, payload = heapq.heappop(events)
            handler(tick, payload)

        interval = self._interval_ticks
        if slot_end_tick % interval == 0:
            self._sample_queues(slot_end_tick // interval - 1)
        self._next_sample_tick = (slot_end_tick // interval + 1) * interval - 1
        out = self._out
        self._out = []
        return out, slot_end_tick >= self._duration

    def next_event_tick(self) -> int:
        """Earliest tick whose slot must be granted even with an empty inbox.

        That is the next event, the last tick before the next interval
        boundary (queues are sampled in the slot ending there) or the last
        tick of the run, whichever comes first.
        """
        tick = min(self._next_sample_tick, self._duration - 1)
        if self._events and self._events[0][0] < tick:
            return self._events[0][0]
        return tick

    def _push_event(self, tick: int, prio: int, handler: Callable, payload) -> None:
        self._eseq += 1
        heapq.heappush(self._events, (tick, prio, self._eseq, handler, payload))

    # ------------------------------------------------------------- ingress

    def _ingress(self, msg: SimMessage, now_tick: int) -> None:
        msg.sent_comm_tick = now_tick
        cls = msg.msg_class
        self.received[cls] += 1
        link = self.route(msg)
        sizes = self._sizes_by_payload.get(msg.payload_bytes)
        if sizes is None:
            sizes = segment_sizes(msg.payload_bytes, self.cfg.mss_bytes, self.cfg.header_bytes)
            self._sizes_by_payload[msg.payload_bytes] = sizes
        self._transfers[msg.id] = msg
        for seg_index, size in enumerate(sizes):
            self._fseq += 1
            self._serve(link, now_tick, TransportFrame(msg.id, seg_index, size, False, cls, self._fseq))

    def _serve(self, link: LinkModel, now_tick: int, frame: TransportFrame | None = None) -> None:
        """The link's server: queue ``frame``, if given, booking its offered
        bits; then, if the server is idle, put the queue head in service.

        The completion event carries the service ticks.
        """
        queue = link.queue
        if frame is not None:
            link.offered_bits[now_tick // self._interval_ticks] += frame.bytes_on_wire * 8
            queue.push(frame)
            if link.busy_frame is not None:
                return
        frame = queue.pop()
        if frame is None:
            return
        ticks = link.ticks_by_size.get(frame.bytes_on_wire)
        if ticks is None:
            ticks = link.service_ticks(frame.bytes_on_wire)
        link.busy_frame = frame
        self._eseq += 1
        heapq.heappush(self._events, (now_tick + ticks, _PRIO_COMPLETION, self._eseq,
                                      self._on_completion, (link, frame, ticks)))

    # -------------------------------------------------------------- events

    def _on_completion(self, tick: int, payload) -> None:
        link, frame, ticks = payload
        if link.busy_frame is not frame:
            return  # stale event from before a failure cleared the link
        link.busy_frame = None
        w = self._interval_ticks
        link.served_bits[tick // w] += frame.bytes_on_wire * 8
        # Busy time split across reporting intervals, for utilization checks.
        start = tick - ticks
        i = start // w
        last = (tick - 1) // w
        if i == last:
            link.busy_ticks[i] += ticks
        else:
            while i <= last:
                link.busy_ticks[i] += min(tick, (i + 1) * w) - max(start, i * w)
                i += 1
        msg = self._transfers.get(frame.msg_id)
        if msg is not None:
            if not frame.is_ack:
                # Segment reaches the receiver after the access latency; the
                # acknowledgement then re-enters the same link.
                self._push_event(tick + link.latency_ticks, _PRIO_ARRIVAL, self._on_ack_arrival,
                                 (link, msg, frame.seg_index))
            elif frame.seg_index == len(self._sizes_by_payload[msg.payload_bytes]) - 1:
                # A class is served first-in first-out, so the last ACK is the
                # message's last frame on the link: a failure from here on
                # finds none of its frames and cannot lose it.
                self._push_event(tick + link.latency_ticks, _PRIO_DELIVERY, self._on_delivery, msg)
        self._serve(link, tick)

    def _on_ack_arrival(self, tick: int, payload) -> None:
        link, msg, seg_index = payload
        if self._transfers.get(msg.id) is not msg:
            return  # lost to a failure while the segment was in flight
        if not link.up:
            # The acknowledgement came back to a link that has since failed.
            self.lost_failure[msg.msg_class] += 1
            del self._transfers[msg.id]
            return
        self._fseq += 1
        self._serve(link, tick, TransportFrame(msg.id, seg_index, self.cfg.ack_bytes, True,
                                               msg.msg_class, self._fseq))

    def _on_delivery(self, tick: int, msg: SimMessage) -> None:
        msg.delivered_comm_tick = tick
        self.delivered[msg.msg_class] += 1
        del self._transfers[msg.id]
        self._out.append((tick, msg))

    def _on_lte_failure(self, tick: int, _payload: None) -> None:
        for link in self._lte_links:
            for frame in link.fail():
                msg = self._transfers.pop(frame.msg_id, None)
                if msg is not None:
                    self.lost_failure[msg.msg_class] += 1
        if self.cfg.qos == "wfq-ra":
            self._out.append((tick, self._rate_update_message(tick)))

    def _on_lte_restore(self, _tick: int, _payload: None) -> None:
        for link in self._lte_links:
            link.restore()

    # ----------------------------------------------------- rate adaptation

    def failover_exchange_bits(self) -> int:
        """Budget unit for the adapted rate: the largest monitored exchange.

        Sizing on the maximum keeps the offered load under the budget over
        any measurement window, not merely on long-run average.
        """
        kinds = {n.kind for n in self._monitored}
        return max(
            exchange_wire_bits(self.cfg, self.cfg.response_payload_bytes(kind)) for kind in kinds
        )

    def _rate_update_message(self, tick: int) -> SimMessage:
        rate_hz = rate_adaptation_rate(self.cfg, len(self._monitored), self.failover_exchange_bits())
        # Round the period up: a longer period can only lower the offered load.
        period_ticks = max(1, math.ceil(TICKS_PER_SECOND / rate_hz))
        self.adapted_period_ticks = period_ticks
        msg_id = self._next_msg_id
        self._next_msg_id += 2
        return SimMessage(
            id=msg_id,
            msg_class=MessageClass.CONTROL,
            kind=MessageKind.RATE_UPDATE,
            src=self._dmr_ap_id,
            dst=self._dms_id,
            payload_bytes=self.cfg.ack_bytes,
            created_tick=tick,
            poll_period_ticks=period_ticks,
        )

    # ------------------------------------------------------------- reports

    def _sample_queues(self, interval: int) -> None:
        for link in self.links:
            link.queue_samples[interval] = (
                link.queue.queued_bytes(MessageClass.MONITORING),
                link.queue.queued_bytes(MessageClass.CONTROL),
            )

    def in_flight_at_end(self) -> dict[MessageClass, int]:
        # Delivered and lost messages were removed, so whatever remains in
        # the table is still in flight.
        counts = dict.fromkeys(MessageClass, 0)
        for msg in self._transfers.values():
            counts[msg.msg_class] += 1
        return counts

    def conservation(self) -> dict[MessageClass, dict[str, int]]:
        """Flow balance per class: in = delivered + lost + queued.  DMR never
        fails, so no message is ever dropped for want of a route."""
        in_flight = self.in_flight_at_end()
        return {
            cls: {
                "received": self.received[cls],
                "delivered": self.delivered[cls],
                "lost_failure": self.lost_failure[cls],
                "dropped_noroute": 0,
                "in_flight_at_end": in_flight[cls],
            }
            for cls in MessageClass
        }
