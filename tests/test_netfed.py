import dataclasses

import pytest

from gridcosim.config import ScenarioConfig, exchange_wire_bits
from gridcosim.errors import ValidationError
from gridcosim.messages import MessageClass, MessageKind, NodeKind, SimMessage
from gridcosim.netfed import NetFederate, rate_adaptation_rate
from gridcosim.runner import run_scenario
from gridcosim.simtime import TICKS_PER_SECOND
from gridcosim.topology import generate_topology

MON = MessageClass.MONITORING
CTL = MessageClass.CONTROL


def build_net(**overrides):
    cfg = dataclasses.replace(ScenarioConfig(), **overrides)
    cfg.validate()
    nodes = generate_topology(cfg)
    return NetFederate(cfg, nodes), cfg, nodes


def poll_request(fed, node_id, created, mid=2):
    return SimMessage(mid, MON, MessageKind.REQUEST, fed._dms_id, node_id, 64, created)


def command(fed, node_id, created, mid=4):
    return SimMessage(mid, CTL, MessageKind.CONTROL_COMMAND, fed._dms_id, node_id, 184, created)


def served_bits(fed):
    """Nonzero bits served, by (interval, link id)."""
    return {(i, link.id): bits for link in fed.links for i, bits in enumerate(link.served_bits) if bits}


def pump(fed, cfg, inboxes, n_slots):
    """Drive the federate for n_slots; inboxes maps slot -> messages."""
    delivered = []
    for slot in range(n_slots):
        out, _ = fed.step(slot, (slot + 1) * cfg.tau_ticks, inboxes.get(slot, []))
        delivered.extend(out)
    assert all(to == "it" for _, to, _ in delivered)
    return delivered


def test_set_up_allocates_nothing_per_interval():
    fed, cfg, _ = build_net(duration_s=9e13)
    assert cfg.duration_ticks // cfg.interval_ticks > 10**12
    for link in fed.links:
        assert (link.offered_bits, link.served_bits, link.busy_ticks) == ([0], [0], [0])
        assert link.queue_samples == []


# ------------------------------------------------------------------ routing

def test_control_routes_to_dmr_even_with_lte_up():
    fed, cfg, nodes = build_net()
    switch = next(n for n in nodes if n.kind is NodeKind.SWITCH)
    assert fed.route(command(fed, switch.id, 0)).id == "dmr"


def test_monitoring_routes_to_nearest_base_station():
    fed, cfg, nodes = build_net()
    west = next(n for n in nodes if n.kind is NodeKind.HVA_LV and n.x_km < 7.0)
    east = next(n for n in nodes if n.kind is NodeKind.HVA_LV and n.x_km > 8.0)
    assert fed.route(poll_request(fed, west.id, 0)).id == "lte-0"
    assert fed.route(poll_request(fed, east.id, 0)).id == "lte-1"
    # The response direction routes by the same radio endpoint.
    response = SimMessage(6, MON, MessageKind.RESPONSE, west.id, fed._dms_id, 500, 0)
    assert fed.route(response).id == "lte-0"


def test_monitoring_falls_back_to_dmr_when_lte_down():
    fed, cfg, nodes = build_net()
    node = next(n for n in nodes if n.kind is NodeKind.HVA_LV)
    for link in fed._lte_links:
        link.fail()
    assert fed.route(poll_request(fed, node.id, 0)).id == "dmr"


def test_monitoring_rides_dmr_without_a_base_station():
    fed, cfg, nodes = build_net(lte_bs_count=0)
    node = next(n for n in nodes if n.kind is NodeKind.HVA_LV)
    assert fed.links == [fed._dmr_link]
    assert fed.route(poll_request(fed, node.id, 0)).id == "dmr"
    response = SimMessage(6, MON, MessageKind.RESPONSE, node.id, fed._dms_id, 500, 0)
    assert fed.route(response).id == "dmr"


def test_control_rides_dmr_during_the_outage():
    fed, cfg, nodes = build_net(qos="fifo", lte_fail_at_s=0.1)
    switch = next(n for n in nodes if n.kind is NodeKind.SWITCH)
    pump(fed, cfg, {}, n_slots=20)
    assert not any(link.up for link in fed._lte_links)
    assert fed.route(command(fed, switch.id, 20 * cfg.tau_ticks)).id == "dmr"


# ----------------------------------------------------- end-to-end transfers

def test_single_message_delivery_time_on_dmr():
    # 500 B response on an idle DMR link: data 540 B (2.25 s) + 0.05 s access,
    # 40 B ack (0.16667 s) + 0.05 s back; delivered when the ack returns.
    fed, cfg, nodes = build_net(qos="fifo")
    node = next(n for n in nodes if n.kind is NodeKind.SWITCH)
    msg = SimMessage(2, CTL, MessageKind.RESPONSE, node.id, fed._dms_id, 500, 0)
    delivered = pump(fed, cfg, {0: [msg]}, n_slots=300)
    ((tick, _to, out),) = delivered
    expected = 225_000 + 5_000 + 16_667 + 5_000
    assert tick == expected
    assert out.delivered_comm_tick == expected
    assert out.sent_comm_tick == 0
    assert out.delivered_comm_tick - out.sent_comm_tick == expected
    assert served_bits(fed) == {(0, "dmr"): (540 + 40) * 8}


def test_finalize_run_books_the_completions_no_grant_reached():
    # The data segment completes at 225,000 and its ACK delivers the message
    # at 251,667.  In a run ending at 230,000, between the two, no slot after
    # the first is due (the later steps are no-ops), and only finalize_run
    # books the completion into the open interval.
    fed, cfg, nodes = build_net(qos="fifo", lte_bs_count=0, metrics_interval_s=10.0)
    node = next(n for n in nodes if n.kind is NodeKind.SWITCH)
    msg = SimMessage(2, CTL, MessageKind.RESPONSE, node.id, fed._dms_id, 500, 0)
    end_tick = 230 * cfg.tau_ticks
    assert pump(fed, cfg, {0: [msg]}, n_slots=230) == []
    assert fed.next_event_tick() >= end_tick
    assert (fed._dmr_link.served_bits, fed._dmr_link.busy_ticks) == ([0], [0])
    fed.finalize_run(end_tick)
    assert (fed._dmr_link.served_bits, fed._dmr_link.busy_ticks) == ([540 * 8], [225_000])
    assert fed.conservation()[CTL]["in_flight_at_end"] == 1


@pytest.mark.parametrize("response_bytes", [500, 5000])
def test_exchange_wire_bits_match_bits_served(response_bytes):
    # One request and its response over an idle DMR link book exactly the
    # bits that the rate adaptation budgets per exchange.
    fed, cfg, nodes = build_net(qos="fifo")
    sub = next(n for n in nodes if n.kind is NodeKind.SUBSTATION)
    for link in fed._lte_links:
        link.fail()
    request = poll_request(fed, sub.id, 0)
    response = SimMessage(4, MON, MessageKind.RESPONSE, sub.id, fed._dms_id, response_bytes, 0)
    assert len(pump(fed, cfg, {0: [request, response]}, n_slots=3000)) == 2
    assert sum(served_bits(fed).values()) == exchange_wire_bits(cfg, response_bytes)


def test_multi_segment_message_counts_all_overhead():
    fed, cfg, nodes = build_net(qos="fifo")
    sub = next(n for n in nodes if n.kind is NodeKind.SUBSTATION)
    msg = SimMessage(2, MON, MessageKind.RESPONSE, sub.id, fed._dms_id, 5000, 0)
    for link in fed._lte_links:
        link.fail()  # force the big response onto the slow link
    delivered = pump(fed, cfg, {0: [msg]}, n_slots=3000)
    ((tick, _to, out),) = delivered
    # Data: (1500+1500+1500+660)*8/1920 s; acks interleave after each segment.
    assert out.delivered_comm_tick - out.sent_comm_tick == tick
    data_ticks = sum(fed._dmr_link.service_ticks(b) for b in (1500, 1500, 1500, 660))
    assert tick >= data_ticks
    served = sum(fed._dmr_link.served_bits)
    assert served == (1500 + 1500 + 1500 + 660 + 4 * 40) * 8


@pytest.mark.parametrize("interval_s, busy", [
    (25.0, {0: 100_000, 1: 125_000}),
    (1.0, {24: 100_000, 25: 100_000, 26: 25_000}),
], ids=["one-boundary", "two-boundaries"])
def test_busy_split_and_bit_booking_in_link_rows(interval_s, busy):
    # The only switch gets one 500 B command, created at 23.99 s; the comm
    # federate sees it at 24 s and serves 540 B on the idle DMR link in
    # 540*8/1920 s = 225,000 ticks, until 26.25 s.  The run ends at 26.3 s,
    # just before the acknowledgement re-enters the link.
    cfg = dataclasses.replace(
        ScenarioConfig(), duration_s=26.3, metrics_interval_s=interval_s,
        count_hva_lv=0, count_substation=0, count_pv_plant=0, count_wind_farm=0,
        count_switch=1, control_burst_size=1, lambda_c_hz=1 / 23.99,
        payload_control_command_bytes=500,
    )
    cfg.validate()
    rows = run_scenario(cfg).link_rows
    assert all(row[4:] == (0, 0, 0) for row in rows if row[1] != "dmr")
    dmr = [row for row in rows if row[1] == "dmr"]
    assert [row[0] for row in dmr] == [i * interval_s for i in range(len(dmr))]
    assert {i: row[6] for i, row in enumerate(dmr) if row[6]} == busy
    assert sum(row[6] for row in dmr) == 225_000
    # Offered bits land in the enqueue interval, served bits in the completion one.
    assert {i: row[5] for i, row in enumerate(dmr) if row[5]} == {int(24.0 // interval_s): 540 * 8}
    assert {i: row[4] for i, row in enumerate(dmr) if row[4]} == {int(26.25 // interval_s): 540 * 8}


def test_conservation_counters_balance():
    fed, cfg, nodes = build_net(qos="fifo")
    hva = [n for n in nodes if n.kind is NodeKind.HVA_LV]
    inboxes = {s: [poll_request(fed, hva[s].id, s * cfg.tau_ticks, mid=2 * s + 2)] for s in range(40)}
    pump(fed, cfg, inboxes, n_slots=60)
    for counters in fed.conservation().values():
        assert counters["received"] == (
            counters["delivered"] + counters["lost_failure"]
            + counters["dropped_noroute"] + counters["in_flight_at_end"]
        )


# ------------------------------------------------------------------ failure

def test_failure_loses_in_flight_and_reroutes():
    fed, cfg, nodes = build_net(qos="fifo", lte_fail_at_s=0.5)
    node = next(n for n in nodes if n.kind is NodeKind.HVA_LV)
    # Enters LTE service at 0.49 s and is still transmitting when every base
    # station dies at 0.5 s; the second poll arrives after the failure and
    # must ride the fallback channel instead.
    doomed = poll_request(fed, node.id, 49_000, mid=2)
    late = poll_request(fed, node.id, 51_000, mid=4)
    delivered = pump(fed, cfg, {49: [doomed], 51: [late]}, n_slots=2000)
    assert fed.lost_failure[MON] == 1
    assert [m.id for _, _to, m in delivered] == [4]
    ((tick, _to, out),) = delivered
    assert not any(link.up for link in fed._lte_links)
    assert out.delivered_comm_tick > 51_000
    # 104 B data + 40 B ack on the 1920 bps channel, plus two access legs.
    assert out.delivered_comm_tick - out.sent_comm_tick == 43_334 + 5_000 + 16_667 + 5_000


def test_stale_completion_neither_books_bits_nor_ends_the_next_service():
    # At 8 kbps a 104 B poll holds LTE for 10,400 ticks.  The first starts at
    # 0 and is lost when LTE fails at 2,000; LTE is back at 4,000 and the
    # second starts at 5,000, so the first one's completion event at 10,400
    # is stale and must not touch the second one's service.
    fed, cfg, nodes = build_net(qos="fifo", lte_bs_capacity_bps=8_000,
                                lte_fail_at_s=0.02, lte_restore_at_s=0.04)
    node = next(n for n in nodes if n.kind is NodeKind.HVA_LV)
    first = poll_request(fed, node.id, 0, mid=2)
    second = poll_request(fed, node.id, 5_000, mid=4)
    delivered = pump(fed, cfg, {0: [first], 5: [second]}, n_slots=100)
    assert fed.lost_failure[MON] == 1
    ((tick, _to, out),) = delivered
    assert out.id == 4
    # 104 B data, access leg, 40 B ack (4,000 ticks), access leg back.
    assert tick == 5_000 + 10_400 + 2_000 + 4_000 + 2_000
    assert served_bits(fed) == {(0, fed.route(second).id): (104 + 40) * 8}


# One 64 B poll to the first HVA/LV node, injected at tick 0, rides lte-1:
# 104 B of data done at 1,664, its ACK arrives at 3,664 and is done at
# 4,304, and the message is delivered at 6,304.
@pytest.mark.parametrize("fail_s, restore_s, delivered_at, bits", [
    (0.05, None, 6_304, (104 + 40) * 8),  # after the last ACK, before delivery
    (0.02, 0.03, 6_304, (104 + 40) * 8),  # the ACK is in flight across the outage
    (0.02, None, None, 104 * 8),          # the ACK comes back to a failed link
])
def test_when_a_link_failure_loses_a_message(fail_s, restore_s, delivered_at, bits):
    fed, cfg, nodes = build_net(qos="fifo", lte_fail_at_s=fail_s, lte_restore_at_s=restore_s)
    node = next(n for n in nodes if n.kind is NodeKind.HVA_LV)
    msg = poll_request(fed, node.id, 0)
    assert fed.route(msg).id == "lte-1"
    delivered = pump(fed, cfg, {0: [msg]}, n_slots=100)
    assert [tick for tick, _to, _msg in delivered] == ([delivered_at] if delivered_at else [])
    assert fed.lost_failure[MON] == (0 if delivered_at else 1)
    assert served_bits(fed) == {(0, "lte-1"): bits}


def test_ack_of_a_lost_message_does_not_reenter_the_restored_link():
    # A 5,000 B response takes four segments on lte-0; the first is served
    # by 24,000 and the second is in service when LTE fails at 25,000.  LTE
    # is back at 25,500, before the first segment's ACK arrives at 26,000.
    fed, cfg, nodes = build_net(qos="fifo", lte_fail_at_s=0.25, lte_restore_at_s=0.255)
    sub = next(n for n in nodes if n.kind is NodeKind.SUBSTATION)
    msg = SimMessage(2, MON, MessageKind.RESPONSE, sub.id, fed._dms_id, 5000, 0)
    assert fed.route(msg).id == "lte-0"
    assert pump(fed, cfg, {0: [msg]}, n_slots=200) == []
    assert fed.lost_failure[MON] == 1
    assert served_bits(fed) == {(0, "lte-0"): 1500 * 8}


def test_failure_beyond_horizon_has_no_effect():
    fed, cfg, nodes = build_net(qos="fifo", lte_fail_at_s=10_000.0, duration_s=100.0)
    node = next(n for n in nodes if n.kind is NodeKind.HVA_LV)
    delivered = pump(fed, cfg, {0: [poll_request(fed, node.id, 0)]}, n_slots=cfg.n_slots)
    assert len(delivered) == 1
    assert all(link.up for link in fed._lte_links)
    assert fed.lost_failure[MON] == 0


def test_restore_brings_lte_back():
    fed, cfg, nodes = build_net(qos="fifo", lte_fail_at_s=0.1, lte_restore_at_s=0.3)
    hva = [n for n in nodes if n.kind is NodeKind.HVA_LV]
    # The two stations sit at x = 3.75 and 11.25 km on one horizontal line.
    nearest = {n.id: "lte-0" if n.x_km < 7.5 else "lte-1" for n in hva}
    assert {n.id: fed.route(poll_request(fed, n.id, 0)).id for n in hva} == nearest
    for slot in range(50):
        fed.step(slot, (slot + 1) * cfg.tau_ticks, [])
        if slot == 20:
            assert {fed.route(poll_request(fed, n.id, 0)).id for n in hva} == {"dmr"}
    assert all(link.up for link in fed._lte_links)
    assert {n.id: fed.route(poll_request(fed, n.id, 0)).id for n in hva} == nearest


def test_rate_update_emitted_once_under_wfq_ra():
    fed, cfg, nodes = build_net(qos="wfq-ra", lte_fail_at_s=0.25)
    delivered = pump(fed, cfg, {}, n_slots=100)
    updates = [m for _, _to, m in delivered if m.kind is MessageKind.RATE_UPDATE]
    assert len(updates) == 1
    (update,) = updates
    assert update.created_tick == 25_000
    assert update.dst == fed._dms_id
    assert update.poll_period_ticks == fed.adapted_period_ticks
    # The period covers the worst-case exchange for every monitored node.
    usable = (1 - cfg.alpha_e) * cfg.dmr_capacity_bps
    expected_rate = usable / (335 * fed.failover_exchange_bits())
    assert update.poll_period_ticks == pytest.approx(TICKS_PER_SECOND / expected_rate, abs=1)


def test_no_rate_update_without_ra_discipline():
    fed, cfg, nodes = build_net(qos="wfq", lte_fail_at_s=0.25)
    delivered = pump(fed, cfg, {}, n_slots=100)
    assert not [m for _, _to, m in delivered if m.kind is MessageKind.RATE_UPDATE]


# ---------------------------------------------------------- rate adaptation

def test_rate_adaptation_budget():
    cfg = ScenarioConfig()
    # Usable budget: (1 - 0.3) * 1920 = 1344 bps.
    assert (1 - cfg.alpha_e) * cfg.dmr_capacity_bps == 1344.0
    rate = rate_adaptation_rate(cfg, 335, 5824)
    assert rate == pytest.approx(1344 / (335 * 5824), rel=1e-12)
    assert rate == pytest.approx(6.9e-4, rel=0.01)


def test_rate_adaptation_alpha_zero_uses_full_capacity():
    cfg = dataclasses.replace(ScenarioConfig(), alpha_e=0.0)
    assert rate_adaptation_rate(cfg, 335, 5824) == pytest.approx(1920 / (335 * 5824), rel=1e-12)


def test_rate_adaptation_rejects_zero_exchange_bits():
    with pytest.raises(ValidationError):
        rate_adaptation_rate(ScenarioConfig(), 335, 0)


def test_rate_adaptation_keeps_offered_load_within_budget():
    cfg = ScenarioConfig()
    bits = exchange_wire_bits(cfg, 500)
    rate = rate_adaptation_rate(cfg, 335, bits)
    assert 335 * rate * bits <= (1 - cfg.alpha_e) * cfg.dmr_capacity_bps + 1e-9


# ------------------------------------------------------------- utilization

def test_utilization_and_flow_conservation_full_run():
    cfg = dataclasses.replace(ScenarioConfig(), duration_s=200.0, qos="fifo", lte_fail_at_s=100.0)
    cfg.validate()
    result = run_scenario(cfg)
    # Busy time per interval never exceeds the interval: utilization <= 1.
    for t_s, link, _qm, _qc, served, _offered, busy in result.link_rows:
        assert busy <= cfg.interval_ticks
        assert served <= cfg.dmr_capacity_bps * cfg.metrics_interval_s + 12_000 or "lte" in link
    for counters in result.conservation.values():
        assert counters["received"] == (
            counters["delivered"] + counters["lost_failure"]
            + counters["dropped_noroute"] + counters["in_flight_at_end"]
        )


def test_dmr_queue_grows_without_bound_after_fifo_failover():
    cfg = dataclasses.replace(ScenarioConfig(), duration_s=400.0, qos="fifo", lte_fail_at_s=100.0)
    cfg.validate()
    result = run_scenario(cfg)
    samples = [(t_s, qm + qc) for t_s, link, qm, qc, _s, _o, _b in result.link_rows
               if link == "dmr" and t_s >= 150.0]
    assert len(samples) >= 8
    depths = [depth for _, depth in sorted(samples)]
    assert all(b > a for a, b in zip(depths, depths[1:]))
