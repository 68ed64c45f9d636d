import dataclasses
import logging

import pytest

from gridcosim.config import ScenarioConfig
from gridcosim.itfed import ITFederate
from gridcosim.messages import MISSING, MessageClass, MessageKind, NodeKind, SimMessage
from gridcosim.metrics import reliability_series
from gridcosim.simtime import TICKS_PER_SECOND
from gridcosim.topology import generate_topology


def build_federate(**overrides):
    cfg = dataclasses.replace(ScenarioConfig(), **overrides)
    cfg.validate()
    nodes = generate_topology(cfg)
    return ITFederate(cfg, nodes), cfg, nodes


def drain_traffic(fed, n_slots, tau_ticks):
    out = []
    for slot in range(n_slots):
        fed.generate_slot_traffic((slot + 1) * tau_ticks, out)
    return [msg for _, _, msg in out]


def test_requests_timestamped_at_due_tick_within_slot():
    fed, cfg, _ = build_federate(duration_s=120.0)
    tau = cfg.tau_ticks
    for slot in range(cfg.n_slots):
        out = []
        fed.generate_slot_traffic((slot + 1) * tau, out)
        for at, to, msg in out:
            assert (at, to) == (msg.created_tick, "comm")
            assert slot * tau <= msg.created_tick < (slot + 1) * tau


def test_polls_recur_at_phase_plus_period():
    fed, cfg, _ = build_federate(duration_s=200.0, count_hva_lv=5, count_switch=0,
                                 monitor_ders=False)
    requests = drain_traffic(fed, cfg.n_slots, cfg.tau_ticks)
    period = fed.poll_period_ticks
    by_node = {}
    for msg in requests:
        by_node.setdefault(msg.dst, []).append(msg.created_tick)
    assert len(by_node) == 6  # five feeder nodes plus one substation
    for ticks in by_node.values():
        phase = ticks[0]
        assert phase < period
        assert ticks == [phase + k * period for k in range(len(ticks))]


def test_aggregate_monitoring_rate_matches_configuration():
    # 333 polled endpoints at one poll per 30 s each: 11.1 requests per second.
    fed, cfg, _ = build_federate(duration_s=300.0, monitor_ders=False)
    assert len(fed.monitored) == 333
    requests = [m for m in drain_traffic(fed, cfg.n_slots, cfg.tau_ticks)
                if m.msg_class is MessageClass.MONITORING]
    rate = len(requests) / cfg.duration_s
    assert rate == pytest.approx(333 / 30, rel=0.02)


def test_control_burst_targets_two_distinct_switches():
    fed, cfg, nodes = build_federate(duration_s=700.0)
    msgs = drain_traffic(fed, cfg.n_slots, cfg.tau_ticks)
    commands = [m for m in msgs if m.kind is MessageKind.CONTROL_COMMAND]
    assert len(commands) == 2
    assert all(m.created_tick == 600 * TICKS_PER_SECOND for m in commands)
    switch_ids = {n.id for n in nodes if n.kind is NodeKind.SWITCH}
    targets = {m.dst for m in commands}
    assert len(targets) == 2 and targets <= switch_ids
    assert all(m.payload_bytes == cfg.payload_control_command_bytes for m in commands)


def test_no_due_events_empty_list():
    fed, cfg, _ = build_federate()
    fed._poll_heap = [(10**12, 0, fed.monitored[0].id)]
    fed._next_control = 10**12
    out = []
    fed.generate_slot_traffic(cfg.tau_ticks, out)
    assert out == []


def _request_via_network(fed, cfg, node_id, created_tick, now_tick, kind=MessageKind.REQUEST,
                         msg_class=MessageClass.MONITORING, mid=None):
    """A request as it would come back from the network federate."""
    payload = cfg.payload_poll_request_bytes if kind is MessageKind.REQUEST else cfg.payload_control_command_bytes
    msg = SimMessage(mid if mid is not None else 2, msg_class, kind, fed._dms_id, node_id,
                     payload, created_tick,
                     sent_comm_tick=created_tick + 100, delivered_comm_tick=now_tick - 200)
    return msg


def test_request_delivery_produces_kind_specific_response():
    fed, cfg, nodes = build_federate()
    hva = next(n for n in nodes if n.kind is NodeKind.HVA_LV)
    sub = next(n for n in nodes if n.kind is NodeKind.SUBSTATION)
    now = 5 * cfg.tau_ticks
    resp = fed.on_deliver(_request_via_network(fed, cfg, hva.id, 100, now), now)
    assert resp.kind is MessageKind.RESPONSE
    assert resp.payload_bytes == 500
    assert resp.created_tick == now
    assert resp.src == hva.id and resp.dst == fed._dms_id
    resp2 = fed.on_deliver(_request_via_network(fed, cfg, sub.id, 150, now, mid=4), now)
    assert resp2.payload_bytes == 5000


def test_control_command_yields_switch_ack():
    fed, cfg, nodes = build_federate()
    switch = next(n for n in nodes if n.kind is NodeKind.SWITCH)
    now = 3 * cfg.tau_ticks
    command = _request_via_network(fed, cfg, switch.id, 80, now, kind=MessageKind.CONTROL_COMMAND,
                                   msg_class=MessageClass.CONTROL)
    ack = fed.on_deliver(command, now)
    assert ack.kind is MessageKind.CONTROL_ACK
    assert ack.payload_bytes == cfg.payload_switch_ack_bytes
    assert ack.correlation_id == command.id


def test_step_publishes_reply_then_due_traffic_to_comm():
    fed, cfg, nodes = build_federate()
    hva = next(n for n in nodes if n.kind is NodeKind.HVA_LV)
    slot = fed.next_event_tick() // cfg.tau_ticks
    now = slot * cfg.tau_ticks
    request = _request_via_network(fed, cfg, hva.id, 100, now, mid=4)
    out, _ = fed.step(slot, now + cfg.tau_ticks, [request])
    assert len(out) > 1
    assert all((at, to) == (msg.created_tick, "comm") for at, to, msg in out)
    assert out[0][2].correlation_id == request.id and out[0][0] == now
    assert all(msg.kind is MessageKind.REQUEST for _, _, msg in out[1:])


def first_request(fed, cfg):
    for slot in range(cfg.n_slots):
        traffic = []
        fed.generate_slot_traffic((slot + 1) * cfg.tau_ticks, traffic)
        if traffic:
            return traffic[0][2]
    raise AssertionError("no traffic generated")


def test_response_closes_exchange_and_records_roundtrip():
    fed, cfg, _ = build_federate()
    request = first_request(fed, cfg)
    node = request.dst
    resp = SimMessage(99, MessageClass.MONITORING, MessageKind.RESPONSE, node, fed._dms_id,
                      500, request.created_tick + 1000, correlation_id=request.id,
                      sent_comm_tick=request.created_tick + 1100,
                      delivered_comm_tick=request.created_tick + 2000)
    now = request.created_tick + 230_000
    fed.on_deliver(resp, now)
    created, delivered = _finalized_ticks(fed, cfg, request.id)
    assert delivered != MISSING
    assert delivered - created == now - request.created_tick


def _finalized_ticks(fed, cfg, mid):
    """Created and delivered tick of exchange ``mid`` once the run is finalized."""
    fed.finalize_run(cfg.duration_ticks)
    rows = fed.exchange_rows
    row = rows.ids.index(mid)
    return rows.created[row], rows.delivered[row]


def test_duplicate_response_counts_unknown_correlation(caplog):
    fed, cfg, _ = build_federate()
    request = first_request(fed, cfg)
    resp = SimMessage(99, MessageClass.MONITORING, MessageKind.RESPONSE, request.dst, fed._dms_id,
                      500, 1000, correlation_id=request.id)
    with caplog.at_level(logging.WARNING, logger="gridcosim.itfed"):
        assert fed.on_deliver(resp, 2000) is None
        assert not caplog.records
        duplicate = SimMessage(101, MessageClass.MONITORING, MessageKind.RESPONSE, request.dst,
                               fed._dms_id, 500, 1500, correlation_id=request.id)
        assert fed.on_deliver(duplicate, 2500) is None
    assert [r.getMessage() for r in caplog.records] == [
        f"response 101 has no open request {request.id}"
    ]
    # The duplicate leaves the exchange the first response closed untouched.
    assert _finalized_ticks(fed, cfg, request.id)[1] == 2000


def test_reliability_series_absent_versus_present():
    fed, cfg, _ = build_federate(duration_s=100.0)
    step_through(fed, cfg)
    fed.finalize_run(cfg.duration_ticks)
    series = reliability_series(fed.exchange_rows, cfg.interval_ticks)
    first = {m.msg_class: m for m in series if m.interval == 0}
    # No commands are issued before the first control period, so the class
    # has no value at all; unanswered monitoring exchanges scored zero.
    assert MessageClass.CONTROL not in first
    monitoring = first[MessageClass.MONITORING]
    assert monitoring.mean == 0.0


def step_through(fed, cfg):
    for slot in range(cfg.n_slots):
        fed.step(slot, (slot + 1) * cfg.tau_ticks, [])


def test_unanswered_exchanges_score_zero_at_close():
    fed, cfg, _ = build_federate(duration_s=100.0, count_hva_lv=10, count_switch=0,
                                 monitor_ders=False)
    step_through(fed, cfg)
    fed.finalize_run(cfg.duration_ticks)
    rows = fed.exchange_rows
    scored = [created for created, score in zip(rows.created, rows.scores) if score != MISSING]
    undecided = [created for created, score in zip(rows.created, rows.scores) if score == MISSING]
    assert scored and set(rows.scores) <= {0, MISSING}
    # Exchanges created within a delay limit of the horizon stay undecided.
    horizon = cfg.duration_ticks
    limit = cfg.delay_limit_ticks(MessageClass.MONITORING)
    assert all(created + limit > horizon for created in undecided)
    assert all(created + limit <= horizon for created in scored)


def test_rate_update_rebuilds_schedule_evenly():
    fed, cfg, nodes = build_federate()
    n = len(fed.monitored)
    new_period = 500_000_000
    now = 42 * cfg.tau_ticks
    update = SimMessage(7, MessageClass.CONTROL, MessageKind.RATE_UPDATE, 400, fed._dms_id,
                        40, now - 1000, poll_period_ticks=new_period)
    assert fed.on_deliver(update, now) is None
    assert fed.poll_period_ticks == new_period
    dues = sorted(due for due, _, _ in fed._poll_heap)
    assert len(dues) == n
    assert dues[0] >= now
    assert dues[-1] <= now + new_period
    # Consecutive first polls sit one stride apart: the adapted load is smooth.
    strides = {b - a for a, b in zip(dues, dues[1:])}
    assert strides <= {new_period // n, new_period // n + 1}
    first = []
    fed.generate_slot_traffic((dues[0] // cfg.tau_ticks + 1) * cfg.tau_ticks, first)
    assert first and first[0][2].created_tick == dues[0]


def test_poisson_arrivals_behind_config_switch():
    fed, cfg, _ = build_federate(duration_s=600.0, count_hva_lv=30, count_switch=0,
                                 monitor_ders=False, arrival_model="poisson")
    requests = [m for m in drain_traffic(fed, cfg.n_slots, cfg.tau_ticks)
                if m.msg_class is MessageClass.MONITORING]
    rate = len(requests) / cfg.duration_s
    assert rate == pytest.approx(31 / 30, rel=0.25)
    gaps = sorted({b.created_tick - a.created_tick
                   for a, b in zip(requests, requests[1:]) if a.dst == b.dst})
    assert len(gaps) > 3  # arrival spacing varies, unlike the periodic model

    fed2, cfg2, _ = build_federate(duration_s=600.0, count_hva_lv=30, count_switch=0,
                                   monitor_ders=False, arrival_model="poisson")
    again = [m.created_tick for m in drain_traffic(fed2, cfg2.n_slots, cfg2.tau_ticks)]
    assert again == [m.created_tick for m in requests]  # still seed-deterministic


def test_application_delay_dominates_network_delay():
    fed, cfg, nodes = build_federate()
    hva = next(n for n in nodes if n.kind is NodeKind.HVA_LV)
    now = 10 * cfg.tau_ticks
    msg = _request_via_network(fed, cfg, hva.id, 100, now)
    fed.on_deliver(msg, now)
    fed.finalize_run(now)
    ((_, _, d_it, d_comm, _),) = fed.comm_legs
    assert d_it >= d_comm > 0
    assert d_it == now - 100
