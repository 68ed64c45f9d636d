"""The lookahead contract: skipping a federate's idle slots changes no output."""

import dataclasses
import pickle
import socket
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gridcosim import envelope as env
from gridcosim import runner
from gridcosim.config import ScenarioConfig
from gridcosim.envelope import decode_envelope, encode_envelope
from gridcosim.errors import ProtocolViolation
from gridcosim.itfed import ITFederate
from gridcosim.messages import MessageClass, MessageKind, SimMessage
from gridcosim.netfed import NetFederate
from gridcosim.rti import Rti
from gridcosim.topology import generate_topology
from gridcosim.transport import InprocEndpoint, SocketEndpoint, _FrameStream, run_federation

TAU = 1000
NEVER = 1 << 62


class EverySlot:
    """Replaces a federate's lookahead with -1, so it is granted every slot,
    and counts its steps."""

    def __init__(self, federate):
        self.name = federate.name
        self.federate = federate
        self.steps = 0

    def step(self, slot, slot_end_tick, inbox):
        self.steps += 1
        outbox, _ = self.federate.step(slot, slot_end_tick, inbox)
        return outbox, -1


def outputs(cfg, **kwargs):
    """Trace digest, reliability/delay CSV bytes and per-link rows of one run."""
    result = runner.run_scenario(cfg, **kwargs)
    with tempfile.TemporaryDirectory() as tmp:
        runner.write_outputs(Path(tmp), result)
        csvs = tuple((Path(tmp) / name).read_bytes() for name in ("reliability.csv", "delay.csv"))
    return result.federation.trace_digest, csvs, result.link_rows


@st.composite
def small_configs(draw):
    duration_s = draw(st.integers(min_value=1, max_value=30)) + draw(st.sampled_from([0.0, 0.03, 0.5]))
    fail_at = draw(st.none() | st.integers(min_value=0, max_value=int(duration_s)))
    restore_at = None
    if fail_at is not None:
        restore_at = draw(st.none() | st.integers(min_value=fail_at, max_value=fail_at + 15))
    cfg = dataclasses.replace(
        ScenarioConfig(),
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        tau_s=draw(st.sampled_from([0.005, 0.01, 0.02, 0.05, 0.1])),
        duration_s=duration_s,
        metrics_interval_s=draw(st.sampled_from([1.0, 2.0, 5.0, 25.0])),
        qos=draw(st.sampled_from(["fifo", "wfq", "wfq-ra"])),
        arrival_model=draw(st.sampled_from(["periodic", "poisson"])),
        lambda_m_hz=draw(st.sampled_from([1 / 30, 1 / 5, 1.0])),
        lambda_c_hz=draw(st.sampled_from([2 / 600, 0.5])),
        delay_limit_monitoring_s=draw(st.sampled_from([2.0, 30.0])),
        delay_limit_control_s=draw(st.sampled_from([1.0, 10.0])),
        count_hva_lv=draw(st.integers(min_value=0, max_value=30)),
        count_switch=draw(st.integers(min_value=0, max_value=5)),
        lte_fail_at_s=None if fail_at is None else float(fail_at),
        lte_restore_at_s=None if restore_at is None else float(restore_at),
    )
    cfg.validate()
    return cfg


@settings(max_examples=25, deadline=None)
@given(cfg=small_configs())
def test_lookahead_grants_match_grant_every_slot(cfg):
    with_lookahead = outputs(cfg)
    wrapped = []

    def run_federation_every_slot(tau_ticks, n_slots, federates, **kwargs):
        wrapped.extend(EverySlot(f) for f in federates)
        return run_federation(tau_ticks, n_slots, wrapped, **kwargs)

    with mock.patch.object(runner, "run_federation", run_federation_every_slot):
        every_slot = outputs(cfg)
    assert [f.steps for f in wrapped] == [cfg.n_slots, cfg.n_slots]
    assert with_lookahead == every_slot


def test_socket_run_matches_in_process_with_failure_and_restore():
    cfg = dataclasses.replace(ScenarioConfig(), duration_s=30.0, qos="wfq-ra",
                              lte_fail_at_s=8.0, lte_restore_at_s=20.0)
    cfg.validate()
    assert outputs(cfg, transport="socket") == outputs(cfg)


@settings(max_examples=30, deadline=None)
@given(cfg=small_configs(), warmup=st.integers(min_value=0, max_value=600))
def test_idle_steps_before_lookahead_are_no_ops(cfg, warmup):
    nodes = generate_topology(cfg)
    federates = [ITFederate(cfg, nodes), NetFederate(cfg, nodes)]
    tau = cfg.tau_ticks
    n = min(warmup, cfg.n_slots)
    run_federation(tau, n, federates)
    for federate in federates:
        lookahead = federate.next_event_tick()
        due_slot = lookahead // tau
        if due_slot <= n:
            continue
        state = pickle.dumps(vars(federate))
        for slot in range(n, min(due_slot, n + 3000)):
            assert federate.step(slot, (slot + 1) * tau, []) == ([], lookahead)
        assert pickle.dumps(vars(federate)) == state


class LookaheadFederate:
    """Steps only when told: declares the given event ticks as its lookahead."""

    def __init__(self, name, events=(), script=None):
        self.name = name
        self.events = sorted(events)
        self.script = script or {}
        self.slots_seen = []
        self.received = []

    def step(self, slot, slot_end_tick, inbox):
        self.slots_seen.append(slot)
        self.received.extend((slot, msg.id) for msg in inbox)
        return self.script.get(slot, []), next((t for t in self.events if t >= slot_end_tick), NEVER)


def test_only_due_federates_are_granted_but_every_slot_is_a_barrier():
    msg = SimMessage(5, MessageClass.MONITORING, MessageKind.REQUEST, 0, 1, 64, 2500)
    fed_a = LookaheadFederate("a", events=[2500, 7000], script={2: [(2500, "b", msg)]})
    fed_b = LookaheadFederate("b")
    rti = Rti(TAU)
    for fed in (fed_a, fed_b):
        rti.register_federate(fed.name, InprocEndpoint(fed))
    reports = [rti.advance_slot() for _ in range(10)]
    assert [r.messages_delivered for r in reports] == [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    # Slot 0 is granted to everyone: nobody has declared a lookahead yet.
    assert fed_a.slots_seen == [0, 2, 7]
    assert fed_b.slots_seen == [0, 3]
    assert fed_b.received == [(3, 5)]
    assert rti.current_slot == 10


def test_case_study_skips_most_grants():
    cfg = dataclasses.replace(ScenarioConfig(), duration_s=200.0, qos="wfq-ra", lte_fail_at_s=50.0)
    cfg.validate()
    steps = {"it": 0, "comm": 0}

    def counting(cls):
        original = cls.step

        def step(self, *args):
            steps[self.name] += 1
            return original(self, *args)
        return step

    with mock.patch.object(ITFederate, "step", counting(ITFederate)), \
            mock.patch.object(NetFederate, "step", counting(NetFederate)):
        result = runner.run_scenario(cfg)
    assert result.federation.slots_run == cfg.n_slots
    assert steps["it"] < cfg.n_slots // 2
    assert steps["comm"] < cfg.n_slots // 2


def test_few_comm_grants_are_idle():
    # The comm federate's lookahead is its next publish or interval close,
    # not its next internal event, so few grants find nothing to do.
    cfg = dataclasses.replace(ScenarioConfig(), duration_s=200.0, qos="wfq-ra", lte_fail_at_s=50.0)
    cfg.validate()
    steps = []
    original = NetFederate.step

    def step(self, slot, slot_end_tick, inbox):
        outbox, next_tick = original(self, slot, slot_end_tick, inbox)
        steps.append(bool(inbox or outbox or slot_end_tick % cfg.interval_ticks == 0))
        return outbox, next_tick

    with mock.patch.object(NetFederate, "step", step):
        runner.run_scenario(cfg)
    assert steps.count(False) * 4 < len(steps)


@settings(max_examples=25, deadline=None)
@given(cfg=small_configs())
def test_comm_publishes_no_earlier_than_its_lookahead(cfg):
    # A grant with an empty inbox comes only from the declared lookahead,
    # which must bound every publish the federate makes there from below.
    declared = [-1]
    early = []
    original = NetFederate.step

    def step(self, slot, slot_end_tick, inbox):
        outbox, next_tick = original(self, slot, slot_end_tick, inbox)
        if not inbox:
            early.extend((at, declared[0]) for at, _to, _msg in outbox if at < declared[0])
        declared[0] = next_tick
        return outbox, next_tick

    with mock.patch.object(NetFederate, "step", step):
        runner.run_scenario(cfg)
    assert early == []


def _horizon_off_the_slot_grid():
    # The run ends at 200.005 s, inside its last 10 ms slot.
    cfg = dataclasses.replace(ScenarioConfig(), duration_s=200.005, qos="wfq-ra", lte_fail_at_s=100.0)
    cfg.validate()
    return cfg


def test_no_federate_is_granted_the_last_slot_for_the_horizon():
    cfg = _horizon_off_the_slot_grid()
    last = cfg.n_slots - 1
    idle_in_last_slot = []

    def watching(cls):
        original = cls.step

        def step(self, slot, slot_end_tick, inbox):
            if slot != last:
                return original(self, slot, slot_end_tick, inbox)
            state = pickle.dumps(vars(self))
            outbox, next_tick = original(self, slot, slot_end_tick, inbox)
            if not inbox and not outbox and pickle.dumps(vars(self)) == state:
                idle_in_last_slot.append(self.name)
            return outbox, next_tick
        return step

    with mock.patch.object(ITFederate, "step", watching(ITFederate)), \
            mock.patch.object(NetFederate, "step", watching(NetFederate)):
        result = runner.run_scenario(cfg)
    assert result.federation.slots_run == cfg.n_slots
    # A step there with nothing due would receive, send and change nothing.
    assert idle_in_last_slot == []


def test_horizon_off_the_slot_grid_matches_across_transports():
    cfg = _horizon_off_the_slot_grid()
    assert outputs(cfg, transport="socket") == outputs(cfg)


def test_run_calls_advance_slot_on_the_class_once_per_slot():
    # The layer trace wraps Rti.advance_slot on the class and reads each
    # report; criterion 7 needs a call on every slot, idle ones included.
    cfg = dataclasses.replace(ScenarioConfig(), duration_s=200.0, qos="wfq-ra", lte_fail_at_s=50.0)
    cfg.validate()
    delivered = []
    original = Rti.advance_slot

    def counting(rti):
        report = original(rti)
        delivered.append(report.messages_delivered)
        return report

    with mock.patch.object(Rti, "advance_slot", counting):
        result = runner.run_scenario(cfg)
    assert len(delivered) == result.federation.slots_run == cfg.n_slots
    assert sum(delivered) == result.federation.messages_delivered > 0
    assert delivered.count(0) > cfg.n_slots // 2


def test_ack_slot_carries_lookahead():
    frame = encode_envelope(env.ack_slot(7, [], 123_000))
    assert frame == b'["ACK_SLOT",7,[],123000]\n'
    assert decode_envelope(frame) == env.ack_slot(7, [], 123_000)
    assert env.ack_slot(7, [], -1)[2:] == [[], -1]


def _ack_through_socket(ack):
    coordinator, federate = socket.socketpair()
    endpoint = SocketEndpoint(_FrameStream(coordinator), "f")
    far = _FrameStream(federate)
    try:
        endpoint.begin_step(4, 5 * TAU, [])
        far.send(ack)
        return endpoint.finish_step()[1]
    finally:
        endpoint.stream.close()
        far.close()


def test_socket_endpoint_caches_lookahead():
    assert _ack_through_socket(env.ack_slot(4, [], 9 * TAU)) == 9 * TAU
    # A federate that wants every slot sends -1.
    assert _ack_through_socket(env.ack_slot(4, [], -1)) == -1


def test_socket_endpoint_rejects_malformed_lookahead():
    with pytest.raises(ProtocolViolation):
        _ack_through_socket([env.ACK_SLOT, 4, [], "soon"])


def test_socket_endpoint_rejects_ack_for_another_slot():
    with pytest.raises(ProtocolViolation, match="ACK_SLOT ending at byte .* for slot 5, expected 4"):
        _ack_through_socket(env.ack_slot(5, [], -1))
