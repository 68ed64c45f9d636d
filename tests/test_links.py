"""Link service oracles (hand integer arithmetic) and queueing disciplines.

The server of a link is run by the comm federate (``NetFederate._serve``
and ``_on_completion``), so the service tests drive it through one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gridcosim.config import ScenarioConfig
from gridcosim.links import FifoQueue, LinkModel, TransportFrame, WfqQueue, segment_sizes
from gridcosim.messages import MessageClass
from gridcosim.netfed import NetFederate
from gridcosim.topology import generate_topology

MON = MessageClass.MONITORING
CTL = MessageClass.CONTROL


def frame(bytes_on_wire, cls=MON, msg_id=1, is_ack=False):
    return TransportFrame(msg_id, 0, bytes_on_wire, is_ack, cls)


def dmr_link(queue=None):
    return LinkModel("dmr", 1920, 5000, queue or FifoQueue())


def lte_link(queue=None):
    return LinkModel("lte-0", 50_000, 2000, queue or FifoQueue())


def dmr_server():
    """An idle comm federate (no events scheduled) and its DMR link."""
    cfg = ScenarioConfig()
    fed = NetFederate(cfg, generate_topology(cfg))
    return fed, fed._dmr_link


def started_services(fed):
    """(completion tick, link, frame) of every service started so far; clears them."""
    started = [(tick, link, frame) for tick, _kind, _seq, link, frame in fed._events]
    fed._events.clear()
    return started


def test_service_time_oracles():
    # 500 B payload + 40 B header at 1920 bps: 540*8/1920 = 2.25 s.
    assert dmr_link().service_ticks(540) == 225_000
    # Same frame at 50 kbps: 0.0864 s.
    assert lte_link().service_ticks(540) == 8_640
    # A bare 40-byte acknowledgement: 40*8/capacity, rounded up to the tick.
    assert dmr_link().service_ticks(40) == 16_667  # ceil(16666.67)
    assert lte_link().service_ticks(40) == 640


def test_service_time_rounds_up_to_tick():
    # 140 B at 1920 bps is 58333.3 ticks; rounding up keeps throughput honest.
    assert dmr_link().service_ticks(140) == 58_334


def test_segment_sizes_cover_payload():
    assert segment_sizes(500, 1460, 40) == [540]
    assert segment_sizes(5000, 1460, 40) == [1500, 1500, 1500, 660]
    assert segment_sizes(1460, 1460, 40) == [1500]
    assert segment_sizes(1461, 1460, 40) == [1500, 41]


@given(payload=st.integers(min_value=1, max_value=100_000),
       mss=st.integers(min_value=1, max_value=3000),
       header=st.integers(min_value=0, max_value=120))
def test_segment_sizes_property(payload, mss, header):
    sizes = segment_sizes(payload, mss, header)
    assert sum(sizes) == payload + len(sizes) * header
    assert all(header < s <= mss + header for s in sizes)


def test_empty_queue_frame_served_immediately():
    fed, link = dmr_server()
    sent = frame(540)
    fed._serve(link, 1_000, sent)
    ((end, served_link, served),) = started_services(fed)
    assert end == 1_000 + 225_000
    assert served_link is link and served is sent and link.busy_frame is sent
    fed._on_completion(end, link, served)
    assert link.busy_frame is None
    assert started_services(fed) == []


def test_busy_link_queues_followups():
    fed, link = dmr_server()
    fed._serve(link, 0, frame(540, msg_id=1))
    fed._serve(link, 100, frame(540, msg_id=2))
    ((end1, _, first),) = started_services(fed)
    fed._on_completion(end1, link, first)
    ((end2, _, second),) = started_services(fed)
    assert second.msg_id == 2
    assert end2 == end1 + 225_000


def test_fail_drops_queue_and_service():
    fed, link = dmr_server()
    fed._serve(link, 0, frame(540, msg_id=1))
    fed._serve(link, 0, frame(540, msg_id=2))
    lost = link.fail()
    assert {f.msg_id for f in lost} == {1, 2}
    assert not link.up and link.busy_frame is None
    link.restore()
    assert link.up


def test_fifo_preserves_order_across_classes():
    q = FifoQueue()
    for seq, cls in enumerate([MON, CTL, MON, CTL]):
        q.push(frame(100, cls, seq))
    assert [q.pop().msg_id for _ in range(4)] == [0, 1, 2, 3]
    assert q.pop() is None


def test_fifo_tracks_queued_bytes():
    q = FifoQueue()
    q.push(frame(100, MON))
    q.push(frame(70, CTL))
    assert q.queued_bytes(MON) == 100 and q.queued_bytes(CTL) == 70
    q.pop()
    assert q.queued_bytes(MON) == 0


def make_wfq(w_mon=0.1, w_ctl=0.9):
    return WfqQueue({MON: w_mon, CTL: w_ctl})


def test_wfq_rejects_non_positive_weights():
    with pytest.raises(ValueError):
        make_wfq(w_mon=0.0)


def test_wfq_single_class_served_back_to_back():
    q = make_wfq()
    for seq in range(5):
        q.push(frame(100, CTL, seq))
    assert [q.pop().msg_id for _ in range(5)] == [0, 1, 2, 3, 4]


def test_wfq_ties_pop_in_push_order_after_the_clock_anchors():
    for first, second in ((MON, CTL), (CTL, MON)):
        q = make_wfq(w_mon=0.5, w_ctl=0.5)
        q.push(frame(100, MON, msg_id=1))
        assert q.pop().msg_id == 1
        assert q._vtime == 1600.0  # 100 B * 8 / 0.5
        # Both classes start at the virtual time, so both finish at 3200.
        q.push(frame(100, first, msg_id=2))
        q.push(frame(100, second, msg_id=3))
        for msg_id in (2, 3):
            assert q.pop().msg_id == msg_id
            assert q._vtime == 3200.0
        assert q.pop() is None

    # Interleaved pushes and pops, then a drain of what is left.
    q = make_wfq(w_mon=0.5, w_ctl=0.5)
    q.push(frame(100, MON, msg_id=1))  # finishes at 1600
    q.push(frame(70, CTL, msg_id=2))   # 1120
    q.push(frame(300, MON, msg_id=3))  # 6400
    assert q.pop().msg_id == 2
    q.push(frame(40, CTL, msg_id=4))   # 1120 + 640 = 1760
    assert q.pop().msg_id == 1
    assert q.queued_bytes(MON) == 300 and q.queued_bytes(CTL) == 40
    assert sorted(f.msg_id for f in q.drain()) == [3, 4]
    assert q.queued_bytes(MON) == 0 and q.queued_bytes(CTL) == 0
    assert q.pop() is None


def test_wfq_fifo_within_each_class():
    q = make_wfq()
    for seq in range(6):
        q.push(frame(100, MON if seq % 2 else CTL, seq))
    popped = [q.pop() for _ in range(6)]
    mon_order = [f.msg_id for f in popped if f.msg_class is MON]
    ctl_order = [f.msg_id for f in popped if f.msg_class is CTL]
    assert mon_order == sorted(mon_order)
    assert ctl_order == sorted(ctl_order)


def test_wfq_share_converges_to_weights():
    # Both classes continuously backlogged, equal frame sizes, weights 1:9.
    q = make_wfq()
    for seq in range(12_000):
        q.push(frame(100, MON, 2 * seq))
        q.push(frame(100, CTL, 2 * seq + 1))
    served = [q.pop().msg_class for _ in range(10_000)]
    mon_count = sum(1 for cls in served if cls is MON)
    assert abs(mon_count - 1000) <= 100  # within 1% of the 1:9 split
    assert abs(mon_count - 1000) <= 2    # and in fact nearly exact


@settings(max_examples=20, deadline=None)
@given(
    w_mon=st.floats(min_value=0.05, max_value=0.95),
    size_mon=st.integers(min_value=40, max_value=1500),
    size_ctl=st.integers(min_value=40, max_value=1500),
)
def test_wfq_byte_share_tracks_weights(w_mon, size_mon, size_ctl):
    q = WfqQueue({MON: w_mon, CTL: 1.0 - w_mon})
    n = 6000
    for seq in range(n):
        q.push(frame(size_mon, MON, 2 * seq))
        q.push(frame(size_ctl, CTL, 2 * seq + 1))
    bytes_served = {MON: 0, CTL: 0}
    for _ in range(n):
        f = q.pop()
        bytes_served[f.msg_class] += f.bytes_on_wire
    share = bytes_served[MON] / (bytes_served[MON] + bytes_served[CTL])
    assert share == pytest.approx(w_mon, rel=0.05, abs=0.02)


def test_wfq_starvation_free():
    q = make_wfq(w_mon=0.001, w_ctl=0.999)
    q.push(frame(1500, MON, 0))
    for seq in range(1, 40):
        q.push(frame(1500, CTL, seq))
    served = [q.pop() for _ in range(40)]
    assert any(f.msg_class is MON for f in served)
