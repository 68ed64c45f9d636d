"""Capacity-limited links with pluggable queueing disciplines.

A link is a single shared-capacity server: data segments and their
acknowledgements, both directions, drain the same bit budget.  Per-frame
service time is the wire size divided by capacity, rounded up to the next
clock tick so that accounted throughput can never exceed capacity.

A queue discipline keeps its order itself (FIFO one deque, SCFQ one heap),
so frames carry no scheduler fields.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from .messages import MessageClass
from .simtime import TICKS_PER_SECOND

@dataclass(slots=True)
class TransportFrame:
    """One wire frame, a message's data segment or an ACK; its queue, not the frame, keeps its order."""

    msg_id: int
    last: bool  # the message's last segment, or that segment's ACK
    bytes_on_wire: int
    is_ack: bool
    msg_class: MessageClass


def segment_sizes(payload_bytes: int, mss_bytes: int, header_bytes: int) -> list[int]:
    """Wire sizes of the data segments carrying ``payload_bytes``."""
    sizes = []
    remaining = payload_bytes
    while remaining > 0:
        chunk = min(mss_bytes, remaining)
        sizes.append(chunk + header_bytes)
        remaining -= chunk
    return sizes


class FifoQueue:
    """Single queue shared by both classes."""

    def __init__(self):
        self._frames: deque[TransportFrame] = deque()

    def push(self, frame: TransportFrame) -> None:
        self._frames.append(frame)

    def pop(self) -> TransportFrame | None:
        if not self._frames:
            return None
        return self._frames.popleft()

    def drain(self) -> list[TransportFrame]:
        frames = list(self._frames)
        self._frames.clear()
        return frames

    def queued_bytes(self, msg_class: MessageClass) -> int:
        return sum(frame.bytes_on_wire for frame in self._frames if frame.msg_class is msg_class)


class WfqQueue:
    """Weighted fair queueing over the two traffic classes.

    Self-clocked fair queueing as one heap of (virtual finish, push order,
    frame).  A frame's virtual finish is its class's last finish, or the
    virtual time if later, plus bits/weight; a pop serves the least key and
    sets the virtual time to its finish.  A class's finishes never fall in
    push order, so within a class order stays first-in first-out.  Any
    positive weights keep both classes starvation-free, and with both classes
    continuously backlogged the service shares converge to the weights.
    """

    def __init__(self, weights: dict[MessageClass, float]):
        for cls, w in weights.items():
            if w <= 0:
                raise ValueError(f"weight for {cls.value} must be positive")
        self._weights = dict(weights)
        self._heap: list[tuple[float, int, TransportFrame]] = []
        self._pushes = 0
        self._finish = dict.fromkeys(MessageClass, 0.0)
        self._vtime = 0.0

    def push(self, frame: TransportFrame) -> None:
        cls = frame.msg_class
        start = self._finish[cls]
        if start < self._vtime:
            start = self._vtime
        finish = start + frame.bytes_on_wire * 8 / self._weights[cls]
        self._finish[cls] = finish
        self._pushes += 1
        heapq.heappush(self._heap, (finish, self._pushes, frame))

    def pop(self) -> TransportFrame | None:
        if not self._heap:
            return None
        self._vtime, _, frame = heapq.heappop(self._heap)
        return frame

    def drain(self) -> list[TransportFrame]:
        frames = [frame for _, _, frame in self._heap]
        self._heap.clear()
        return frames

    def queued_bytes(self, msg_class: MessageClass) -> int:
        return sum(frame.bytes_on_wire for _, _, frame in self._heap if frame.msg_class is msg_class)


@dataclass(slots=True)
class LinkModel:
    """A capacity-limited channel with one work-conserving server.

    The link owns its per-interval report columns, indexed by reporting
    interval: bits offered (booked at enqueue), bits served (booked at
    completion), busy ticks (split across the intervals a service spans)
    and the queued bytes per class sampled at each interval's end.  The
    comm federate runs the server and closes each interval.
    """

    id: str
    capacity_bps: int
    latency_ticks: int
    queue: FifoQueue | WfqQueue
    up: bool = True
    busy_frame: TransportFrame | None = None
    # One entry per interval begun; the last entry is the open interval.
    offered_bits: list[int] = field(init=False, default_factory=lambda: [0])
    served_bits: list[int] = field(init=False, default_factory=lambda: [0])
    busy_ticks: list[int] = field(init=False, default_factory=lambda: [0])
    queue_samples: list[tuple[int, int]] = field(init=False, default_factory=list)
    #: Wire size -> service ticks, filled by ``service_ticks``.
    ticks_by_size: dict[int, int] = field(init=False, default_factory=dict)

    def service_ticks(self, bytes_on_wire: int) -> int:
        # Ceil keeps per-link accounted throughput at or below capacity.
        ticks = -(-bytes_on_wire * 8 * TICKS_PER_SECOND // self.capacity_bps)
        self.ticks_by_size[bytes_on_wire] = ticks
        return ticks

    def fail(self) -> list[TransportFrame]:
        """Take the link down; queued and in-service frames are lost."""
        self.up = False
        lost = self.queue.drain()
        if self.busy_frame is not None:
            lost.append(self.busy_frame)
            self.busy_frame = None
        return lost

    def restore(self) -> None:
        self.up = True
