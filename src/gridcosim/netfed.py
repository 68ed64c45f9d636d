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

The federate's lookahead is the earliest tick at which it may publish or
must close a reporting interval, not its next internal event: a segment's
completion or landing only leads to a delivery at least one link latency
later.  The events in between wait and run at the next grant, before its
arrivals, in the same order.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter

from .config import ScenarioConfig, failover_poll_rate_hz
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
from .topology import monitored_nodes, nearest_sites

# Event kinds, run in this order within a tick.  A data segment lands one
# latency after its completion, and its ACK then enters the same link.  A
# last ACK delivers its message one latency after its completion; that goes
# to ``_deliveries``, not here.  ``_eseq`` makes heap keys unique: two links
# are never compared.
_LTE_FAIL = 0
_LTE_RESTORE = 1
_COMPLETION = 2
_LANDING = 3


class NetFederate:
    """The communication perspective of the federation."""

    name = "comm"

    def __init__(self, cfg: ScenarioConfig, nodes: list[NodeDescriptor]):
        self.cfg = cfg
        self._tau = cfg.tau_ticks
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
        sites = [(n.x_km, n.y_km) for n in nodes if n.kind is NodeKind.LTE_BS]
        self._nearest_lte: dict[int, LinkModel] = {}
        if sites:
            # Points one at a time: a list of them would raise the peak RSS.
            nearest = nearest_sites(sites, ((n.x_km, n.y_km) for n in self._monitored))
            for node, index in zip(self._monitored, nearest):
                self._nearest_lte[node.id] = self._lte_links[index]

        # (tick, kind, seq, link, frame); the outage events carry None, None.
        self._events: list[tuple[int, int, int, LinkModel | None, TransportFrame | None]] = []
        self._eseq = 0
        # (tick, id, message) of each message whose last ACK has completed.
        self._deliveries: list[tuple[int, int, SimMessage]] = []
        self._min_latency = min(link.latency_ticks for link in self.links)
        # Messages in the network by id, from ingress until delivered or lost.
        self._transfers: dict[int, SimMessage] = {}
        self._sizes_by_payload: dict[int, list[int]] = {}
        self._out: list[tuple[int, str, SimMessage]] = []
        self.adapted_period_ticks: int | None = None

        self.received = dict.fromkeys(MessageClass, 0)
        self.delivered = dict.fromkeys(MessageClass, 0)
        self.lost_failure = dict.fromkeys(MessageClass, 0)

        # The outage; events beyond the simulated horizon never fire.
        if cfg.lte_fail_at_s is not None:
            self._push(ticks_from_seconds(cfg.lte_fail_at_s), _LTE_FAIL, None, None)
        if cfg.lte_restore_at_s is not None:
            self._push(ticks_from_seconds(cfg.lte_restore_at_s), _LTE_RESTORE, None, None)
        # The ticks of the outage events still to run, in firing order.
        self._outages = sorted(event[0] for event in self._events)
        self._lookahead = self.next_event_tick()

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
        lte = [LinkModel(f"lte-{i}", cfg.lte_bs_capacity_bps, lte_latency, make_queue())
               for i in range(cfg.lte_bs_count)]
        return lte, LinkModel("dmr", cfg.dmr_capacity_bps, dmr_latency, make_queue())

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

    def step(self, slot: int, slot_end_tick: int, inbox: list[SimMessage]) -> tuple[list[tuple[int, str, SimMessage]], int]:
        if not inbox and slot_end_tick <= self._lookahead:
            return [], self._lookahead
        now = slot * self._tau
        # The events that waited since the last grant, and link state changes
        # exactly at the slot boundary, run before this slot's arrivals are routed.
        self._run_events((now, _COMPLETION))
        for msg in inbox:
            self._ingress(msg, now)
        self._run_events((slot_end_tick,))
        deliveries = self._deliveries
        while deliveries and deliveries[0][0] < slot_end_tick:
            tick, _id, msg = heapq.heappop(deliveries)
            msg.delivered_comm_tick = tick
            self.delivered[msg.msg_class] += 1
            del self._transfers[msg.id]
            self._out.append((tick, "it", msg))

        # An interval is whole slots and the lookahead grants the slot ending
        # at its end, so every later event books into the entry opened here.
        if slot_end_tick % self._interval_ticks == 0:
            self._close_interval()
        out = self._out
        self._out = []
        self._lookahead = self.next_event_tick()
        return out, self._lookahead

    def next_event_tick(self) -> int:
        """Earliest tick at which this federate may publish or must close an
        interval, so its slot must be granted even with an empty inbox.

        That is the next delivery, the next outage (the rate-adapting
        discipline publishes there), the last tick of the open interval (the
        slot ending there closes it), or the next event plus the shortest
        link latency, whichever comes first: a completion or landing leads
        to a delivery at least one latency later.
        """
        tick = len(self._dmr_link.served_bits) * self._interval_ticks - 1
        if self._events and self._events[0][0] + self._min_latency < tick:
            tick = self._events[0][0] + self._min_latency
        if self._deliveries and self._deliveries[0][0] < tick:
            tick = self._deliveries[0][0]
        if self._outages and self._outages[0] < tick:
            tick = self._outages[0]
        return tick

    def finalize_run(self, end_tick: int) -> None:
        """Run the events before ``end_tick`` that no grant reached, so that
        the open interval's link records hold them.  None of them delivers
        before ``end_tick``: the lookahead bounds every delivery from below."""
        self._run_events((end_tick,))

    def _run_events(self, until: tuple[int, ...]) -> None:
        """Run the events whose (tick, kind) key is ordered before ``until``."""
        events = self._events
        while events and events[0] < until:
            tick, kind, _seq, link, frame = heapq.heappop(events)
            if kind == _LANDING:
                self._on_landing(tick, link, frame)
            elif kind == _COMPLETION:
                self._on_completion(tick, link, frame)
            else:
                self._outages.pop(0)
                if kind == _LTE_FAIL:
                    self._on_lte_failure(tick)
                else:
                    self._on_lte_restore()

    def _push(self, tick: int, kind: int, link: LinkModel | None, frame: TransportFrame | None) -> None:
        self._eseq += 1
        heapq.heappush(self._events, (tick, kind, self._eseq, link, frame))

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
        for n, size in enumerate(sizes, 1):
            self._serve(link, now_tick, TransportFrame(msg.id, n == len(sizes), size, False, cls))

    def _serve(self, link: LinkModel, now_tick: int, frame: TransportFrame | None = None) -> None:
        """The link's server: queue ``frame``, if given, booking its offered
        bits; then, if the server is idle, put the queue head in service.

        This fills ``link.ticks_by_size`` for every frame it serves.
        """
        queue = link.queue
        if frame is not None:
            link.offered_bits[-1] += frame.bytes_on_wire * 8
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
        self._push(now_tick + ticks, _COMPLETION, link, frame)

    # -------------------------------------------------------------- events

    def _on_completion(self, tick: int, link: LinkModel, frame: TransportFrame) -> None:
        if link.busy_frame is not frame:
            return  # stale event from before a failure cleared the link
        link.busy_frame = None
        ticks = link.ticks_by_size[frame.bytes_on_wire]
        w = self._interval_ticks
        link.served_bits[-1] += frame.bytes_on_wire * 8
        # Busy time split across reporting intervals, closed ones included.
        start = tick - ticks
        i = start // w
        last_i = (tick - 1) // w
        if i == last_i:
            link.busy_ticks[i] += ticks
        else:
            while i <= last_i:
                link.busy_ticks[i] += min(tick, (i + 1) * w) - max(start, i * w)
                i += 1
        # A class is served first-in first-out, so the last ACK is the
        # message's last frame on the link: a failure from here on finds none
        # of its frames and cannot lose it, and it is delivered for certain.
        msg = self._transfers.get(frame.msg_id)
        if msg is not None:
            if not frame.is_ack:
                self._push(tick + link.latency_ticks, _LANDING, link, frame)
            elif frame.last:
                heapq.heappush(self._deliveries, (tick + link.latency_ticks, msg.id, msg))
        self._serve(link, tick)

    def _on_landing(self, tick: int, link: LinkModel, frame: TransportFrame) -> None:
        msg = self._transfers.get(frame.msg_id)
        if msg is None:
            return  # lost to a failure while the segment was in flight
        if not link.up:
            # The ACK would go back over a link that has since failed.
            self.lost_failure[msg.msg_class] += 1
            del self._transfers[msg.id]
        else:
            self._serve(link, tick, TransportFrame(msg.id, frame.last, self.cfg.ack_bytes, True, msg.msg_class))

    def _on_lte_failure(self, tick: int) -> None:
        for link in self._lte_links:
            for frame in link.fail():
                msg = self._transfers.pop(frame.msg_id, None)
                if msg is not None:
                    self.lost_failure[msg.msg_class] += 1
        if self.cfg.qos == "wfq-ra":
            self._out.append((tick, "it", self._rate_update_message(tick)))

    def _on_lte_restore(self) -> None:
        for link in self._lte_links:
            link.restore()

    # ----------------------------------------------------- rate adaptation

    def _rate_update_message(self, tick: int) -> SimMessage:
        # Counted from this federate's own nodes, which need not be the config's.
        rate_hz = failover_poll_rate_hz(self.cfg, Counter(n.kind for n in self._monitored))
        # Round the period up: a longer period can only lower the offered load.
        period_ticks = max(1, math.ceil(TICKS_PER_SECOND / rate_hz))
        self.adapted_period_ticks = period_ticks
        return SimMessage(
            # The one message a run's single outage can make this federate
            # send; the application federate's ids are even.
            id=1,
            msg_class=MessageClass.CONTROL,
            kind=MessageKind.RATE_UPDATE,
            src=self._dmr_ap_id,
            dst=self._dms_id,
            payload_bytes=self.cfg.ack_bytes,
            created_tick=tick,
            poll_period_ticks=period_ticks,
        )

    # ------------------------------------------------------------- reports

    def _close_interval(self) -> None:
        """Sample each link's queued bytes and open the next interval."""
        for link in self.links:
            link.queue_samples.append((link.queue.queued_bytes(MessageClass.MONITORING),
                                       link.queue.queued_bytes(MessageClass.CONTROL)))
            link.offered_bits.append(0)
            link.served_bits.append(0)
            link.busy_ticks.append(0)

    def conservation(self) -> dict[MessageClass, dict[str, int]]:
        """Flow balance per class: in = delivered + lost + queued.  DMR never
        fails, so no message is ever dropped for want of a route.  Delivered
        and lost messages leave ``_transfers``; what remains is in flight."""
        in_flight = dict.fromkeys(MessageClass, 0)
        for msg in self._transfers.values():
            in_flight[msg.msg_class] += 1
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
