"""Differential test: ``NetFederate`` against the reference model of the network."""

import dataclasses

from hypothesis import given, settings, strategies as st

from gridcosim.config import QOS_MODES, ScenarioConfig
from gridcosim.messages import MessageClass, MessageKind, NodeDescriptor, NodeKind, SimMessage
from gridcosim.netfed import NetFederate
from tests.reference_netfed import TICKS_PER_SECOND, ReferenceNet

TAU_S = 0.01


def grid_point(draw):
    # A coarse grid, so that two stations are often equally near a node.
    return float(draw(st.integers(0, 4))), float(draw(st.integers(0, 4)))


@st.composite
def cases(draw):
    n_endpoints = draw(st.integers(2, 10))
    n_stations = draw(st.integers(0, 3))
    n_slots = draw(st.integers(50, 300))
    mss = draw(st.sampled_from([60, 200, 1460]))

    nodes = [NodeDescriptor(0, NodeKind.DMS, 2.0, 2.0)]
    for kind in [NodeKind.HVA_LV] * n_endpoints + [NodeKind.LTE_BS] * n_stations + [NodeKind.DMR_AP]:
        nodes.append(NodeDescriptor(len(nodes), kind, *grid_point(draw)))
    endpoints = [n.id for n in nodes if n.kind is NodeKind.HVA_LV]

    arrivals = []
    for i in range(draw(st.integers(0, 30))):
        cls = draw(st.sampled_from(MessageClass))
        node = draw(st.sampled_from(endpoints))
        src, dst = (0, node) if draw(st.booleans()) else (node, 0)
        payload = draw(st.sampled_from([mss - 1, mss, mss + 1]) | st.integers(1, 3 * mss))
        kind = MessageKind.REQUEST if cls is MessageClass.MONITORING else MessageKind.CONTROL_COMMAND
        arrivals.append((draw(st.integers(0, n_slots - 1)),
                         SimMessage(2 * i + 2, cls, kind, src, dst, payload, 0)))
    arrivals.sort(key=lambda pair: pair[0])

    fail = restore = None
    if draw(st.booleans()):
        fail_ticks = st.integers(0, (n_slots + 20) * 1000)
        if arrivals:
            # Often just after an ingress, so that LTE fails with frames in flight.
            fail_ticks |= st.tuples(st.sampled_from([slot * 1000 for slot, _ in arrivals]),
                                    st.integers(0, 5000)).map(sum)
        fail = draw(fail_ticks)
        if draw(st.booleans()):
            restore = fail + draw(st.integers(0, n_slots * 500))
    weights = draw(st.sampled_from([(0.1, 0.9), (0.5, 0.5), (0.9, 0.3)]))
    cfg = dataclasses.replace(
        ScenarioConfig(),
        tau_s=TAU_S,
        duration_s=n_slots * TAU_S - draw(st.sampled_from([0.0, 0.004])),
        metrics_interval_s=draw(st.integers(1, 40)) * TAU_S,
        qos=draw(st.sampled_from(QOS_MODES)),
        wfq_weight_monitoring=weights[0],
        wfq_weight_control=weights[1],
        lte_bs_count=n_stations,
        lte_bs_capacity_bps=draw(st.sampled_from([8_000, 20_000, 50_000])),
        dmr_capacity_bps=draw(st.sampled_from([1_920, 9_600, 19_200])),
        access_latency_lte_s=draw(st.integers(0, 30)) / 1000,
        access_latency_dmr_s=draw(st.integers(0, 60)) / 1000,
        mss_bytes=mss,
        header_bytes=draw(st.integers(0, 40)),
        ack_bytes=draw(st.integers(1, 40)),
        lte_fail_at_s=None if fail is None else fail / TICKS_PER_SECOND,
        lte_restore_at_s=None if restore is None else restore / TICKS_PER_SECOND,
        count_hva_lv=n_endpoints, count_substation=0, count_switch=0,
        count_pv_plant=0, count_wind_farm=0,
    )
    cfg.validate()
    return cfg, nodes, n_slots, arrivals


def check_against_reference(cfg, nodes, n_slots, arrivals):
    """Run ``NetFederate`` and the reference model on the same arrivals and
    compare everything both report; return the delivery tick of each id."""
    tau = cfg.tau_ticks

    fed = NetFederate(cfg, nodes)
    inboxes = {}
    for slot, msg in arrivals:
        inboxes.setdefault(slot, []).append(dataclasses.replace(msg))
    out = []
    for slot in range(n_slots):
        out += fed.step(slot, (slot + 1) * tau, inboxes.get(slot, []))[0]
    fed.finalize_run(n_slots * tau)

    ref = ReferenceNet(cfg, nodes)
    ref.run([(slot, dataclasses.replace(msg)) for slot, msg in arrivals], n_slots)

    assert all(msg.delivered_comm_tick == tick for tick, _to, msg in out if msg.kind is not MessageKind.RATE_UPDATE)
    assert {msg.id: tick for tick, _to, msg in out if msg.kind is not MessageKind.RATE_UPDATE} == ref.delivered_at
    assert [(tick, msg.poll_period_ticks) for tick, _to, msg in out
            if msg.kind is MessageKind.RATE_UPDATE] == ref.rate_updates
    lost = {msg.id for _, msg in arrivals} - ref.delivered_at.keys() - fed._transfers.keys()
    assert lost == ref.lost
    assert fed.conservation() == ref.conservation()
    for link, ref_link in zip(fed.links, ref.links, strict=True):
        # The columns grow as intervals are reached: compare the intervals
        # the run reached, the unsampled last one reading (0, 0).
        n = len(ref_link.offered)
        assert link.id == ref_link.name
        assert link.offered_bits[:n] == ref_link.offered
        assert link.served_bits[:n] == ref_link.served
        assert link.busy_ticks[:n] == ref_link.busy
        assert link.queue_samples + [(0, 0)] * (n - len(link.queue_samples)) == ref_link.samples
    return ref.delivered_at


@settings(max_examples=150, deadline=None)
@given(cases())
def test_netfed_matches_the_reference_model(case):
    check_against_reference(*case)


def test_same_tick_landings_on_two_links():
    # One station: the monitoring request rides LTE, the control command DMR.
    nodes = [NodeDescriptor(0, NodeKind.DMS, 2.0, 2.0), NodeDescriptor(1, NodeKind.HVA_LV, 1.0, 1.0),
             NodeDescriptor(2, NodeKind.LTE_BS, 1.0, 1.0), NodeDescriptor(3, NodeKind.DMR_AP, 2.0, 2.0)]
    cfg = dataclasses.replace(
        ScenarioConfig(), tau_s=TAU_S, duration_s=0.3, metrics_interval_s=0.1, qos="fifo",
        lte_bs_count=1, lte_bs_capacity_bps=50_000, dmr_capacity_bps=9_600,
        access_latency_lte_s=0.02, access_latency_dmr_s=0.05, header_bytes=40, ack_bytes=40,
        count_hva_lv=1, count_substation=0, count_switch=0, count_pv_plant=0, count_wind_farm=0,
    )
    cfg.validate()
    command = SimMessage(2, MessageClass.CONTROL, MessageKind.CONTROL_COMMAND, 0, 1, 11, 0)
    request = SimMessage(4, MessageClass.MONITORING, MessageKind.REQUEST, 0, 1, 184, 0)
    delivered = check_against_reference(cfg, nodes, 30, [(0, command), (12, request)])

    # The command enters DMR at tick 0: 51 B are served in 4,250 ticks and
    # land 5,000 later; the 40 B ACK is served in 3,334 and lands 5,000 later.
    last_ack_lands = 4_250 + 5_000 + 3_334 + 5_000
    # The request enters LTE at tick 12,000: 224 B are served in 3,584 ticks
    # and land 2,000 later, at the tick the command's last ACK lands.
    data_lands = 12_000 + 3_584 + 2_000
    assert data_lands == last_ack_lands == delivered[2]
    # Its 40 B ACK is then served in 640 ticks and lands 2,000 later.
    assert delivered[4] == data_lands + 640 + 2_000
