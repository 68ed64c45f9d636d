import bisect
import dataclasses
import itertools
import json
import socket
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gridcosim import envelope as env
from gridcosim import transport
from gridcosim.config import ScenarioConfig
from gridcosim.errors import (DecodeError, DuplicateName, FederateTimeout, GridCoSimError,
                              ProtocolViolation)
from gridcosim.messages import MessageClass, MessageKind, SimMessage
from gridcosim.runner import run_scenario, write_outputs
from gridcosim.transport import run_federation


def make_msg(mid: int, created: int) -> SimMessage:
    return SimMessage(mid, MessageClass.CONTROL, MessageKind.CONTROL_COMMAND, 0, 1, 184, created)


class EchoFederate:
    """Returns one reply for every message received; used on both transports."""

    def __init__(self, name, peer, script=None):
        self.name = name
        self.peer = peer
        self.script = script or {}
        self.received = []
        self._next_id = 10_000 if name > peer else 20_000

    def step(self, slot, slot_end_tick, inbox):
        now = slot_end_tick - 1000
        outbox = [(at, self.peer, msg) for at, msg in self.script.get(slot, [])]
        for msg in inbox:
            self.received.append((now, msg.id))
            if msg.kind is MessageKind.CONTROL_COMMAND:
                self._next_id += 1
                ack = SimMessage(self._next_id, msg.msg_class, MessageKind.CONTROL_ACK,
                                 msg.dst, msg.src, 100, now, correlation_id=msg.id)
                outbox.append((now, self.peer, ack))
        return outbox, -1


class FailingFederate:
    name = "bad"

    def step(self, slot, slot_end_tick, inbox):
        raise RuntimeError("synthetic federate crash")


def _script():
    return {s: [(s * 1000 + 137, make_msg(50 + s, s * 1000 + 137))] for s in range(0, 8, 2)}


def _run(transport):
    fed_a = EchoFederate("a", "b", _script())
    fed_b = EchoFederate("b", "a")
    result = run_federation(1000, 10, [fed_a, fed_b], transport=transport)
    return fed_a, fed_b, result


def test_transport_equivalence_on_scripted_federates():
    a_in, b_in, inproc = _run("inproc")
    a_sock, b_sock, socketed = _run("socket")
    assert inproc.trace_digest == socketed.trace_digest
    assert b_in.received == b_sock.received
    assert a_in.received == a_sock.received
    assert inproc.messages_published == socketed.messages_published == 8


def test_socket_federation_opens_no_listening_socket(monkeypatch):
    # Each federate's stream is one end of a socket pair: no address is
    # bound, listened on or connected to.
    def refuse(*args, **kwargs):
        raise AssertionError("the socket transport needs no network address")

    monkeypatch.setattr(transport.socket, "create_server", refuse)
    monkeypatch.setattr(transport.socket, "create_connection", refuse)
    assert _run("socket")[2].trace_digest == _run("inproc")[2].trace_digest


def test_a_raw_federate_reads_grants_straight_after_its_join(monkeypatch):
    # A client of its own that sends JOIN and takes the very next frame as
    # its first GRANT: no other frame is part of the handshake.
    frames_read = []

    def raw_client(sock, federate):
        with sock, sock.makefile("rb") as reader:
            sock.sendall(json.dumps(["JOIN", 0, federate.name]).encode() + b"\n")
            for line in reader:
                frame = json.loads(line)
                frames_read.append(frame[0])
                if frame[0] != "GRANT":
                    return
                _, slot, end_ticks, inbox = frame
                out, next_tick = federate.step(slot, end_ticks, list(map(SimMessage.from_wire, inbox)))
                out = [[at, to, msg.to_wire()] for at, to, msg in out]
                sock.sendall(json.dumps(["ACK_SLOT", slot, out, next_tick]).encode() + b"\n")

    monkeypatch.setattr(transport, "run_federate_client", raw_client)
    a_raw, b_raw, raw = _run("socket")
    a_in, b_in, inproc = _run("inproc")
    assert frames_read == ["GRANT"] * 20  # both federates, every one of the 10 slots
    assert raw.trace_digest == inproc.trace_digest
    assert (a_raw.received, b_raw.received) == (a_in.received, b_in.received)


class FanOutFederate:
    """Publishes a per-slot script whose entries each name their
    destination, and logs every inbox it is granted."""

    def __init__(self, name, script=None):
        self.name = name
        self.script = script or {}
        self.inboxes = []

    def step(self, slot, slot_end_tick, inbox):
        self.inboxes.append((slot, [(msg.id, msg.created_tick) for msg in inbox]))
        return self.script.get(slot, []), -1


def test_one_federate_publishes_to_two_others_in_one_slot():
    script = {1: [(1200, "b", make_msg(7, 1200)), (1300, "c", make_msg(8, 1300)),
                  (1300, "b", make_msg(9, 1300))],
              3: [(3000, "c", make_msg(10, 3000))]}
    runs = []
    for transport in ("inproc", "socket"):
        feds = [FanOutFederate("a", script), FanOutFederate("b"), FanOutFederate("c")]
        result = run_federation(1000, 5, feds, transport=transport)
        runs.append(({fed.name: fed.inboxes for fed in feds}, result.trace_digest))
    assert runs[0] == runs[1]
    inboxes = runs[0][0]
    assert inboxes["a"] == [(slot, []) for slot in range(5)]
    assert inboxes["b"] == [(0, []), (1, []), (2, [(7, 1200), (9, 1300)]), (3, []), (4, [])]
    assert inboxes["c"] == [(0, []), (1, []), (2, [(8, 1300)]), (3, []), (4, [(10, 3000)])]


def test_transport_equivalence_on_full_scenario(tmp_path):
    # The second input sends a control burst every 10 s, so control commands
    # and acks cross the transport interleaved with polls.  The last three
    # bring LTE back at 20 s under each discipline, with the digests they had
    # when the restore was first compared across transports.
    cases = [dict(duration_s=30.0, qos="wfq-ra", lambda_c_hz=lambda_c_hz)
             for lambda_c_hz in (ScenarioConfig.lambda_c_hz, 0.2)]
    restored = {"fifo": "086f4d39", "wfq": "4f474d38", "wfq-ra": "9ccda0c3"}
    cases += [dict(duration_s=40.0, qos=qos, lambda_c_hz=0.2, lte_restore_at_s=20.0) for qos in restored]
    for index, case in enumerate(cases):
        cfg = dataclasses.replace(ScenarioConfig(), lte_fail_at_s=10.0, **case)
        cfg.validate()
        inproc = run_scenario(cfg)
        socketed = run_scenario(cfg, transport="socket")
        assert inproc.federation.trace_digest == socketed.federation.trace_digest
        if cfg.lte_restore_at_s is not None:
            assert inproc.federation.trace_digest[:8] == restored[cfg.qos]
        assert all(getattr(inproc.exchange_rows, name) == getattr(socketed.exchange_rows, name)
                   for name in inproc.exchange_rows.__slots__)
        assert list(inproc.comm_legs) == list(socketed.comm_legs)
        assert [(m.interval, m.msg_class, m.mean) for m in inproc.reliability] == [
            (m.interval, m.msg_class, m.mean) for m in socketed.reliability
        ]
        assert inproc.conservation == socketed.conservation
        logs = []
        for name, result in (("inproc", inproc), ("socket", socketed)):
            out = tmp_path / f"{name}-{index}"
            write_outputs(out, result, exchange_log=True)
            logs.append((out / "exchange_log.csv").read_bytes())
        assert logs[0] == logs[1]
    kinds = {kind for _cls, kind, *_ticks in inproc.comm_legs}
    assert {MessageKind.CONTROL_COMMAND, MessageKind.CONTROL_ACK} <= kinds


def test_transport_equivalence_with_frames_longer_than_one_read(monkeypatch, tmp_path):
    # 3,320 feeders polled in 25 s slots put hundreds of messages in a GRANT
    # or ACK_SLOT, so the largest frames take several reads to arrive.
    sizes = []
    real_encode = transport.encode_envelope

    def encode(frame):
        data = real_encode(frame)
        sizes.append(len(data))
        return data

    monkeypatch.setattr(transport, "encode_envelope", encode)
    cfg = dataclasses.replace(ScenarioConfig(), count_hva_lv=3320, tau_s=25.0, duration_s=100.0)
    cfg.validate()
    outputs = []
    for name in ("inproc", "socket"):
        result = run_scenario(cfg, transport=name)
        write_outputs(tmp_path / name, result, exchange_log=True, link_log=True)
        outputs.append([result.federation.trace_digest] + [
            (tmp_path / name / csv).read_bytes()
            for csv in ("reliability.csv", "delay.csv", "link_log.csv", "exchange_log.csv")])
    assert max(sizes) > transport._RECV_BYTES
    assert outputs[0] == outputs[1]


@st.composite
def _random_configs(draw):
    """Horizons up to 30 s under each QoS mode and arrival model, with or
    without an LTE failure and restore, 0-40 feeders and 1-3 stations."""
    duration_s = draw(st.integers(1, 30)) + draw(st.sampled_from([0.0, 0.005]))
    fail_at = draw(st.none() | st.integers(0, int(duration_s)))
    restore_at = None if fail_at is None else draw(st.none() | st.integers(fail_at, fail_at + 15))
    cfg = dataclasses.replace(
        ScenarioConfig(),
        seed=draw(st.integers(0, 10**6)),
        duration_s=duration_s,
        metrics_interval_s=draw(st.sampled_from([1.0, 5.0, 25.0])),
        qos=draw(st.sampled_from(["fifo", "wfq", "wfq-ra"])),
        arrival_model=draw(st.sampled_from(["periodic", "poisson"])),
        lambda_m_hz=draw(st.sampled_from([1 / 30, 1.0])),
        lambda_c_hz=draw(st.sampled_from([2 / 600, 0.5])),
        count_hva_lv=draw(st.integers(0, 40)),
        count_switch=draw(st.integers(0, 5)),
        lte_bs_count=draw(st.integers(1, 3)),
        lte_fail_at_s=None if fail_at is None else float(fail_at),
        lte_restore_at_s=None if restore_at is None else float(restore_at),
    )
    cfg.validate()
    return cfg


def _digest_and_csvs(cfg, transport):
    result = run_scenario(cfg, transport=transport)
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(Path(tmp), result, link_log=True)
        csvs = [(Path(tmp) / name).read_bytes() for name in ("reliability.csv", "delay.csv", "link_log.csv")]
    return result.federation.trace_digest, csvs


@settings(max_examples=15, deadline=None)
@given(cfg=_random_configs())
def test_transport_equivalence_on_random_configs(cfg):
    assert _digest_and_csvs(cfg, "socket") == _digest_and_csvs(cfg, "inproc")


def _floats_bools_and_objects(value, path=()):
    """Paths to every float, bool and object inside decoded JSON ``value``."""
    if isinstance(value, (bool, float, dict)):
        yield path
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _floats_bools_and_objects(item, path + (index,))


def test_socket_frames_hold_no_float_and_no_bool_but_done(monkeypatch):
    # No frame holds a bool at all: the lookahead is an int, -1 for every
    # slot.  Every frame is an array, and so is everything in it.
    frames = []
    encode = transport.encode_envelope

    def recording_encode(envelope):
        frames.append(encode(envelope))
        return frames[-1]

    monkeypatch.setattr(transport, "encode_envelope", recording_encode)
    cfg = dataclasses.replace(ScenarioConfig(), duration_s=20.0, qos="wfq-ra", lte_fail_at_s=10.0)
    cfg.validate()
    run_scenario(cfg, transport="socket")
    decoded = [json.loads(frame) for frame in frames]
    assert {frame[0] for frame in decoded} == {"JOIN", "GRANT", "ACK_SLOT"}
    assert any(frame[0] == "GRANT" and frame[3] for frame in decoded)
    for frame in decoded:
        assert type(frame) is list
        assert list(_floats_bools_and_objects(frame)) == []


def test_federate_crash_surfaces_as_protocol_error():
    good = EchoFederate("good", "bad")
    with pytest.raises(ProtocolViolation, match="synthetic federate crash"):
        run_federation(1000, 3, [FailingFederate(), good], transport="socket")


def test_unknown_transport_rejected():
    with pytest.raises(ValueError):
        run_federation(1000, 1, [EchoFederate("a", "b"), EchoFederate("b", "a")],
                       transport="carrier-pigeon")


class StalledFederate:
    name = "stalled"

    def step(self, slot, slot_end_tick, inbox):
        import time

        time.sleep(2.0)
        return [], -1


def test_slow_federate_times_out():
    from gridcosim.errors import FederateTimeout

    good = EchoFederate("good", "stalled")
    with pytest.raises(FederateTimeout, match="^federate stalled sent no ACK_SLOT for slot 0 within 0.3 s$"):
        run_federation(1000, 2, [StalledFederate(), good],
                       transport="socket", timeout_s=0.3)


@pytest.mark.parametrize("timeout_s", [0.0, 1e-7, -1.0])
def test_a_timeout_below_one_microsecond_is_refused(timeout_s):
    # A zero kernel timeout would mean no bound at all, so the run would hang.
    with pytest.raises(ValueError, match="^timeout_s must be at least 1 us"):
        run_federation(1000, 1, [EchoFederate("a", "b"), EchoFederate("b", "a")],
                       transport="socket", timeout_s=timeout_s)


class SlowToJoinFederate:
    """Its federate thread, reading ``name`` to send its JOIN, waits until
    ``release`` is set; the coordinator reads it at once."""

    def __init__(self):
        self.release = threading.Event()

    @property
    def name(self):
        if threading.current_thread().name == "federate-slow":
            self.release.wait(5.0)
        return "slow"

    def step(self, slot, slot_end_tick, inbox):
        return [], -1


def test_a_federate_that_sends_no_join_is_named_by_position(monkeypatch):
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    slow = SlowToJoinFederate()
    with pytest.raises(FederateTimeout, match="^federate 2 of 2 sent no JOIN within 0.3 s$"):
        run_federation(1000, 2, [EchoFederate("good", "slow"), slow], transport="socket",
                       timeout_s=0.3)
    # Released, the federate finds its stream closed and its thread ends quietly.
    thread = next(t for t in threading.enumerate() if t.name == "federate-slow")
    slow.release.set()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert escaped == []


class HeldFederate:
    """Stalls in its first step until ``release`` is set."""

    name = "held"

    def __init__(self):
        self.release = threading.Event()

    def step(self, slot, slot_end_tick, inbox):
        self.release.wait(5.0)
        return [], -1


def test_failed_run_does_not_wait_for_a_stalled_federate():
    held = HeldFederate()
    started = time.perf_counter()
    with pytest.raises(FederateTimeout, match="federate held sent no ACK_SLOT for slot 0"):
        run_federation(1000, 2, [held, EchoFederate("good", "held")], transport="socket",
                       timeout_s=0.5)
    assert time.perf_counter() - started < 0.8
    # Released, the federate finds its stream closed and its thread ends quietly.
    held.release.set()
    thread = next(t for t in threading.enumerate() if t.name == "federate-held")
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_refused_join_ends_the_federate_thread_quietly(monkeypatch):
    escaped = []
    monkeypatch.setattr(threading, "excepthook", escaped.append)
    with pytest.raises(DuplicateName):
        run_federation(1000, 3, [EchoFederate("twin", "twin"), EchoFederate("twin", "twin")],
                       transport="socket", timeout_s=5.0)
    for thread in threading.enumerate():
        if thread.name == "federate-twin":
            thread.join(timeout=5.0)
    assert escaped == []


class LateFederate:
    """Declares no event before slot 50, so it goes ungranted until then."""

    name = "late"

    def __init__(self):
        self.slots_seen = []

    def step(self, slot, slot_end_tick, inbox):
        self.slots_seen.append(slot)
        return [], 50_000 if slot < 50 else 1 << 62


class BusyFederate:
    name = "busy"

    def step(self, slot, slot_end_tick, inbox):
        import time

        time.sleep(0.01)
        return [], -1


def test_ungranted_socket_federate_outlasts_timeout():
    # The late federate waits ~0.5 s for its next grant, longer than the
    # 0.2 s acknowledgment timeout; it must keep waiting, not quit.
    late = LateFederate()
    result = run_federation(1000, 52, [late, BusyFederate()], transport="socket", timeout_s=0.2)
    assert result.slots_run == 52
    assert late.slots_seen == [0, 50]


class RawFederate:
    """Stands for a client that writes its own frames on a raw socket: the
    items after the type and slot 0 of its JOIN and its ACK_SLOT, or the
    whole ACK_SLOT frame as bytes."""

    name = "raw"

    def __init__(self, ack_fields=None, join_fields=None):
        self.ack_fields = ack_fields
        self.join_fields = ["raw"] if join_fields is None else join_fields


_real_client = transport.run_federate_client


def _send_frame(sock, frame_type, fields):
    sock.sendall(json.dumps([frame_type, 0, *fields]).encode() + b"\n")


def _raw_client(sock, federate):
    """Join, wait for the first grant, send one ACK_SLOT, then wait for the close."""
    if not isinstance(federate, RawFederate):
        return _real_client(sock, federate)
    with sock, sock.makefile("rb") as reader:
        _send_frame(sock, "JOIN", federate.join_fields)
        if not reader.readline().startswith(b'["GRANT"'):
            return  # the coordinator refused the join and closed the stream
        if isinstance(federate.ack_fields, bytes):
            sock.sendall(federate.ack_fields)
        else:
            _send_frame(sock, "ACK_SLOT", federate.ack_fields)
        reader.read()


def _run_with_raw_ack(monkeypatch, ack_fields):
    monkeypatch.setattr(transport, "run_federate_client", _raw_client)
    good = EchoFederate("good", "raw")
    run_federation(1000, 3, [RawFederate(ack_fields), good], transport="socket", timeout_s=5.0)


class DeafFederate:
    """Stands for a client that acknowledges slot 0, then stops reading
    until ``release`` is set."""

    name = "deaf"

    def __init__(self):
        self.release = threading.Event()


def _deaf_client(sock, federate):
    if not isinstance(federate, DeafFederate):
        return _real_client(sock, federate)
    with sock, sock.makefile("rb") as reader:
        _send_frame(sock, "JOIN", ["deaf"])
        reader.readline()
        _send_frame(sock, "ACK_SLOT", [[], -1])
        federate.release.wait(5.0)


def test_a_grant_the_federate_does_not_read_is_a_named_timeout(monkeypatch):
    # 20,000 messages published to it in slot 0 make a GRANT for slot 1 far
    # larger than the socket buffers, so its write stalls.
    monkeypatch.setattr(transport, "run_federate_client", _deaf_client)
    deaf = DeafFederate()
    flood = EchoFederate("flood", "deaf", {0: [(500, make_msg(i, 500)) for i in range(20_000)]})
    with pytest.raises(FederateTimeout,
                       match="^federate deaf did not read its GRANT for slot 1 within 0.3 s$") as err:
        run_federation(1000, 3, [flood, deaf], transport="socket", timeout_s=0.3)
    assert isinstance(err.value.__cause__, BlockingIOError)  # the kernel's bound
    deaf.release.set()
    thread = next(t for t in threading.enumerate() if t.name == "federate-deaf")
    thread.join(timeout=5.0)
    assert not thread.is_alive()


class _WritesAhead:
    """A federate's end of its stream that writes ``extra`` in the same write
    as its ACK_SLOT for ``slot``, ahead of the coordinator's answer."""

    def __init__(self, sock, slot, extra):
        self.sock, self.prefix, self.extra = sock, b'["ACK_SLOT",%d,' % slot, extra

    def sendall(self, data):
        self.sock.sendall(data + self.extra if data.startswith(self.prefix) else data)

    def recv(self, size):
        return self.sock.recv(size)

    def close(self):
        self.sock.close()


@pytest.mark.parametrize("slot, extra", [
    (4, b'["ACK_SLOT",4,[],-1]\n'),  # a second answer to the last slot
    (2, b'["ACK_SLOT",3,[],-1]\n'),  # slot 3's answer, written before its GRANT
], ids=["after-the-last-slot", "answer-ahead-of-its-grant"])
def test_a_frame_written_ahead_of_its_turn_is_a_decode_error(monkeypatch, slot, extra):
    def client(sock, federate):
        return _real_client(_WritesAhead(sock, slot, extra) if federate.name == "a" else sock, federate)

    monkeypatch.setattr(transport, "run_federate_client", client)
    offset = len(env.encode_envelope(env.join("a"))) + sum(
        len(env.encode_envelope(env.ack_slot(s, [], -1))) for s in range(slot + 1))
    with pytest.raises(DecodeError, match=rf"^bytes past the end of the frame \(byte {offset}\)$"):
        run_federation(1000, 5, [EchoFederate("a", "b"), EchoFederate("b", "a")], transport="socket",
                       timeout_s=5.0)


# An ACK_SLOT with a field missing or one too many is refused by the decoder;
# one with its four items is refused by the endpoint.
_MALFORMED_ACK = r"federate raw .*ACK_SLOT ending at byte \d+"
_ACK_ITEM_COUNT = r"^ACK_SLOT frame must have 4 items, got \d+ \(byte \d+\)$"


def _expect_malformed_ack(monkeypatch, ack_fields, error=ProtocolViolation, match=_MALFORMED_ACK):
    with pytest.raises(error, match=match) as err:
        _run_with_raw_ack(monkeypatch, ack_fields)
    return err.value


_WIRE_MSG = make_msg(1, 100).to_wire()


def _wire_msg(index: int, value) -> list:
    """``_WIRE_MSG`` with the field at ``index`` set to ``value``."""
    msg = list(_WIRE_MSG)
    msg[index] = value
    return msg


@pytest.mark.parametrize("entry", [
    [None, "good", _WIRE_MSG],
    [100, None, _WIRE_MSG],
    [100, "good", _wire_msg(0, None)],
    [100, "good", _wire_msg(1, "x")],
    [100, "good", _wire_msg(2, ["request"])],
    [100, "good", 7],
    ["100", "good", _WIRE_MSG],
    [100, ["good"], _WIRE_MSG],
    [100, "good", _wire_msg(0, "x")],
    [100, "good", _wire_msg(3, 0.0)],
    [100, "good", _wire_msg(5, True)],
    [100, "good", _wire_msg(6, 100.0)],
    [100, "good", _wire_msg(8, 5.5)],
    [100, "good", _wire_msg(9, "1")],
    7,
    [100, "good", _WIRE_MSG[:10]],
    [100, "good", _WIRE_MSG + [0]],
    [100, "good"],
    [100, "good", dict(zip(["id", "cls", "kind", "src", "dst", "len", "ct", "sct", "dct", "corr",
                            "ppt"], _WIRE_MSG))],
    {"at": 100, "to": "good", "msg": _WIRE_MSG},
], ids=["no-at", "no-to", "no-id", "bad-cls", "unhashable-kind", "msg-not-object", "str-at", "list-to",
        "str-id", "float-src", "bool-len", "float-ct", "float-dct", "str-corr", "entry-not-object",
        "10-item-msg", "12-item-msg", "2-item-entry", "dict-msg", "dict-entry"])
def test_malformed_publish_is_protocol_violation(monkeypatch, entry):
    _expect_malformed_ack(monkeypatch, [[entry], -1])


@pytest.mark.parametrize("ack_fields, error", [
    ([], DecodeError),
    ([{"at": 100, "to": "good", "msg": _WIRE_MSG}, -1], ProtocolViolation),
    ([None, -1], ProtocolViolation),
    ([[], 1, -1], DecodeError),
    ([[], "true"], ProtocolViolation),
    ([[], 5.0], ProtocolViolation),
    ([[]], DecodeError),
    ([[], None], ProtocolViolation),
    ([[], True], ProtocolViolation),
    ([[], -1, True], DecodeError),
    ([[], -1, 1], DecodeError),
], ids=["no-out", "object-out", "null-out", "int-done", "str-done", "float-next", "no-next",
        "null-next", "bool-next", "done-beside-next", "unknown-key"])
def test_malformed_ack_slot_is_protocol_violation(monkeypatch, ack_fields, error):
    _expect_malformed_ack(monkeypatch, ack_fields, error,
                          _MALFORMED_ACK if error is ProtocolViolation else _ACK_ITEM_COUNT)


@pytest.mark.parametrize("ack_fields", [
    ["x" * 1_000_000, -1],
    [[], "x" * 1_000_000],
    [[[100, ["x"] * 200_000, _WIRE_MSG]], -1],
    [[[100, "good", _wire_msg(0, "x" * 1_000_000)]], -1],
    [[[100, "good", _wire_msg(1, "x" * 1_000_000)]], -1],
    [[], -1, "x" * 1_000_000],
], ids=["str-out", "str-next", "list-to", "str-id", "str-cls", "str-key"])
def test_protocol_violation_text_is_bounded(monkeypatch, ack_fields):
    # What the peer sent is named by its type and length, never copied.
    err = _expect_malformed_ack(monkeypatch, ack_fields, (ProtocolViolation, DecodeError),
                                f"{_MALFORMED_ACK}|{_ACK_ITEM_COUNT}")
    assert len(str(err)) < 500


_HUGE = "x" * 1_000_000


@pytest.mark.parametrize("raw", [
    RawFederate(ack_fields=[[[100, _HUGE, _WIRE_MSG]], -1]),
    RawFederate(join_fields=[_HUGE]),
    RawFederate(ack_fields=json.dumps(["ERROR", 0, "E", _HUGE]).encode() + b"\n"),
], ids=["str-to", "str-join-name", "str-error-detail"])
def test_peer_text_beyond_the_ack_slot_checks_is_bounded(monkeypatch, raw):
    # An unknown destination, a JOIN name and an ERROR frame's text are
    # quoted only when short; a 1 MB string is named by its type and length.
    monkeypatch.setattr(transport, "run_federate_client", _raw_client)
    with pytest.raises(ProtocolViolation) as err:
        run_federation(1000, 3, [raw, EchoFederate("good", "raw")], transport="socket", timeout_s=5.0)
    assert "a str of 1000000" in str(err.value)
    assert len(str(err.value)) < 500


def test_federate_that_closes_after_join_is_named(monkeypatch):
    # The second federate joins only once the quitter has closed its end,
    # so the coordinator's first grant to the quitter is the failing send.
    closed = threading.Event()

    def quitting_client(sock, federate):
        if federate.name != "quitter":
            closed.wait(5.0)
            return _real_client(sock, federate)
        with sock:
            _send_frame(sock, "JOIN", ["quitter"])
        closed.set()

    monkeypatch.setattr(transport, "run_federate_client", quitting_client)
    quitter, good = EchoFederate("quitter", "good"), EchoFederate("good", "quitter")
    with pytest.raises(ProtocolViolation, match="^federate quitter closed its stream mid-slot$") as err:
        run_federation(1000, 3, [quitter, good], transport="socket", timeout_s=5.0)
    assert isinstance(err.value.__cause__, ConnectionError)


def test_short_peer_text_is_quoted(monkeypatch):
    monkeypatch.setattr(transport, "run_federate_client", _raw_client)
    error = json.dumps(["ERROR", 0, "ValueError", "boom"])
    with pytest.raises(ProtocolViolation, match="federate raw failed: 'ValueError': 'boom'"):
        run_federation(1000, 3, [RawFederate(ack_fields=error.encode() + b"\n"),
                                 EchoFederate("good", "raw")],
                       transport="socket", timeout_s=5.0)
    with pytest.raises(ProtocolViolation, match="unknown destination federate 'nowhere'"):
        _run_with_raw_ack(monkeypatch, [[[100, "nowhere", _WIRE_MSG]], -1])


def test_huge_integer_in_ack_slot_ends_the_run_with_a_simulator_error(monkeypatch):
    # Python 3.11 refuses the 5,000-digit literal while decoding; 3.10
    # decodes it, and the tick then lies outside the granted slot.
    msg = json.dumps(_WIRE_MSG, separators=(",", ":")).encode()
    frame = b'["ACK_SLOT",0,[[' + b"7" * 5000 + b',"good",' + msg + b']],-1]\n'
    with pytest.raises(GridCoSimError):
        _run_with_raw_ack(monkeypatch, frame)


_UNNAMED = (ProtocolViolation, "JOIN must name the federate")


@pytest.mark.parametrize("join_fields, error", [
    ([], (DecodeError, "^JOIN frame must have 3 items, got 2 \\(byte 0\\)$")),
    ([["raw"]], _UNNAMED),
    (["r" * 201], _UNNAMED),
    (["r\naw"], _UNNAMED),
], ids=["no-name", "list-name", "long-name", "multiline-name"])
def test_malformed_join_is_protocol_violation(monkeypatch, join_fields, error):
    monkeypatch.setattr(transport, "run_federate_client", _raw_client)
    good = EchoFederate("good", "raw")
    with pytest.raises(error[0], match=error[1]):
        run_federation(1000, 3, [RawFederate(join_fields=join_fields), good], transport="socket",
                       timeout_s=5.0)


class RecordingFederate:
    name = "rec"

    def __init__(self):
        self.steps = []

    def step(self, slot, slot_end_tick, inbox):
        self.steps.append((slot, slot_end_tick, inbox))
        return [], -1


@pytest.mark.parametrize("grant_fields", [
    [5000.0, []],
    [True, []],
    ["5000", []],
    [[]],
    [5000],
    [5000, None],
    [5000, {"0": _WIRE_MSG}],
    [5000, [_wire_msg(6, 100.0)]],
], ids=["float-end", "bool-end", "str-end", "no-end", "no-inbox", "null-inbox", "object-inbox",
        "float-msg"])
def test_malformed_grant_is_answered_with_error(grant_fields):
    # A GRANT without one of its fields does not decode; the federate
    # answers that with an ERROR too.
    coordinator, federate_side = socket.socketpair()
    federate = RecordingFederate()
    client = threading.Thread(target=transport.run_federate_client, args=(federate_side, federate))
    client.start()
    try:
        with coordinator.makefile("rb") as reader:
            assert json.loads(reader.readline()) == ["JOIN", 0, "rec"]
            _send_frame(coordinator, "GRANT", grant_fields)
            reply = json.loads(reader.readline())
    finally:
        coordinator.close()
        client.join(timeout=5.0)
    assert not client.is_alive()
    assert reply[:2] == ["ERROR", 0]
    assert reply[2] in ("ProtocolViolation", "TypeError", "DecodeError")
    assert federate.steps == []


# ------------------------------------------------ any frame on the wire

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _mutated_list(draw, valid: list) -> list:
    """``valid`` with up to two of its items set to random JSON, or one
    item dropped or appended."""
    out = list(valid)
    action = draw(st.sampled_from(["set"] * 4 + ["drop", "append"]))
    if action == "drop":
        del out[draw(st.integers(0, len(out) - 1))]
    elif action == "append":
        out.append(draw(_JSON))
    else:
        for index in draw(st.lists(st.integers(0, len(out) - 1), max_size=2, unique=True)):
            out[index] = draw(_JSON)
    return out


@st.composite
def _ack_frames(draw):
    """An ACK_SLOT for the granted slot with random faults; now and then
    cut short, or random bytes instead."""
    entry = _mutated_list(draw, [4000, "peer", _mutated_list(draw, _WIRE_MSG)])
    frame = json.dumps(_mutated_list(draw, ["ACK_SLOT", 4, [entry] * draw(st.integers(0, 2)), 9000]))
    frame = frame.encode() + b"\n"
    kind = draw(st.sampled_from(["whole"] * 6 + ["cut", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=80))
    return frame[: draw(st.integers(0, len(frame)))] if kind == "cut" else frame


def _finish_step_after(frame: bytes, reads_grant: bool):
    """Grant slot 4 to a federate that answers with ``frame`` and hangs up,
    with or without reading its grant first."""
    coordinator, federate = socket.socketpair()
    endpoint = transport.SocketEndpoint(transport._FrameStream(coordinator), "f")
    try:
        endpoint.begin_step(4, 5000, [])
        if reads_grant:
            with federate.makefile("rb") as reader:
                reader.readline()
        federate.sendall(frame)
        federate.close()  # so that no case waits on a timeout
        endpoint.finish_step()
    finally:
        endpoint.stream.close()
        federate.close()


_DEEP = b'["ACK_SLOT",4,' + b"[" * 5000 + b"]" * 5000 + b",9000]\n"


@settings(max_examples=200, deadline=None)
@given(frame=_ack_frames(), reads_grant=st.booleans())
@example(frame=_DEEP, reads_grant=True)
def test_any_frame_is_an_acknowledgment_or_a_protocol_or_decode_error(frame, reads_grant):
    try:
        _finish_step_after(frame, reads_grant)
    except (ProtocolViolation, DecodeError):
        pass


# ------------------------------------------------ framing over a socket

_stream_messages = st.builds(make_msg, st.integers(0, 10**6), st.integers(0, 10**9))
_stream_envelopes = st.one_of(
    st.builds(env.join, st.text(max_size=8)),
    st.builds(env.grant, st.integers(0, 10**6), st.integers(0, 10**9), st.lists(_stream_messages, max_size=2)),
    st.builds(env.ack_slot, st.integers(0, 10**6),
              st.lists(st.tuples(st.integers(0, 10**9), st.just("comm"), _stream_messages), max_size=2),
              st.integers(-1, 10**9)),
    st.builds(env.error, st.integers(0, 10**6), st.text(max_size=8), st.text(max_size=30)),
)


@settings(max_examples=100, deadline=None)
@given(envelopes=st.lists(_stream_envelopes, min_size=1, max_size=5), data=st.data())
def test_frames_come_out_whole_however_the_stream_is_split_or_cut(envelopes, data):
    """Each frame written in chunks of any size, from one byte to the whole
    frame, and read before the next is written, as the wire alternates; the
    stream then closed at any byte: every whole frame is read back, ``offset``
    moves by each frame's length, and what follows is None at a frame
    boundary or a truncated frame at the byte of the cut."""
    frames = [env.encode_envelope(e) for e in envelopes]
    blob = b"".join(frames)
    ends = list(itertools.accumulate(map(len, frames)))
    cut = data.draw(st.just(len(blob)) | st.integers(0, len(blob)), label="cut")
    # A read that waited for bytes never sent would fail, not hang.
    reader, writer = transport._coordinator_pair(5.0)
    stream = transport._FrameStream(reader)
    received, sent = [], 0
    try:
        while sent < cut:
            frame_end = ends[len(received)]
            size = data.draw(st.integers(1, len(frames[len(received)])), label="chunk")
            chunk_end = min(cut, frame_end, sent + size)
            writer.sendall(blob[sent:chunk_end])
            sent = chunk_end
            if sent == frame_end:  # the frame is whole: read it before the next is written
                received.append(stream.recv())
                assert stream.offset == frame_end
        writer.close()
        if cut in (0, *ends):
            assert stream.recv() is None
        else:
            with pytest.raises(DecodeError) as err:
                stream.recv()
            assert (str(err.value), err.value.offset) == (f"truncated frame (byte {cut})", cut)
    finally:
        writer.close()
        stream.close()
    assert received == envelopes[:bisect.bisect_right(ends, cut)]


def test_a_frame_longer_than_one_read_comes_out_whole():
    """A frame spanning several ``recv`` calls, sent in small pieces, and
    once it is read a frame cut short: the long frame is read back whole and
    the cut is a truncated frame at its byte."""
    long_grant = env.grant(3, 4000, [make_msg(i, i) for i in range(3000)])
    frames = [env.encode_envelope(long_grant), env.encode_envelope(env.join("it"))]
    assert len(frames[0]) > 2 * transport._RECV_BYTES
    cut = len(frames[0]) + len(frames[1]) - 5
    reader, writer = transport._coordinator_pair(5.0)
    stream = transport._FrameStream(reader)

    def write():  # more than the socket buffers hold, so written beside the reader
        for start in range(0, len(frames[0]), 1000):
            writer.sendall(frames[0][start:start + 1000])

    thread = threading.Thread(target=write)
    thread.start()
    try:
        assert stream.recv() == long_grant
        assert stream.offset == len(frames[0])
        thread.join()
        writer.sendall(frames[1][:-5])
        writer.close()
        with pytest.raises(DecodeError) as err:
            stream.recv()
        assert (str(err.value), err.value.offset) == (f"truncated frame (byte {cut})", cut)
    finally:
        thread.join()
        writer.close()
        stream.close()


@settings(max_examples=50, deadline=None)
@given(envelopes=st.lists(_stream_envelopes, min_size=1, max_size=5))
def test_frames_written_one_at_a_time_are_read_one_at_a_time(envelopes):
    """Each whole frame in its own ``sendall``, read before the next is sent,
    so that one ``recv`` returns exactly one frame: each is read back with
    the stream offset at its end, a frame that does not decode is the
    decoder's error at the same offset, and a clean end is None."""
    writer, reader = transport._coordinator_pair(5.0)
    stream = transport._FrameStream(reader)
    offset = 0
    try:
        for envelope in envelopes:
            frame = env.encode_envelope(envelope)
            writer.sendall(frame)
            assert stream.recv() == envelope
            offset += len(frame)
            assert stream.offset == offset
        unknown = b'["NOPE",0]\n'
        with pytest.raises(DecodeError) as expected:
            env.decode_envelope(unknown, offset)
        writer.sendall(unknown)
        with pytest.raises(DecodeError) as err:
            stream.recv()
        assert (str(err.value), err.value.offset) == (str(expected.value), expected.value.offset)
        writer.close()
        assert stream.recv() is None
    finally:
        writer.close()
        stream.close()


class _Reads:
    """Stands for a socket whose reads return ``chunks`` in turn, then the end of the stream."""

    def __init__(self, chunks):
        self.chunks = iter(chunks)

    def recv(self, size):
        chunk = next(self.chunks, b"")
        assert len(chunk) <= size
        return chunk


@settings(max_examples=100, deadline=None)
@given(first=_stream_envelopes, envelope=_stream_envelopes, extra=st.binary(min_size=1, max_size=40),
       data=st.data())
def test_bytes_past_the_end_of_a_frame_are_a_decode_error(first, envelope, extra, data):
    """A frame and any bytes after it in the same read, whether the frame
    came in that read alone or in several: the peer wrote ahead of its turn,
    and the read is a DecodeError at the byte just past the frame."""
    head = env.encode_envelope(first)
    frame = env.encode_envelope(envelope)
    blob = frame + extra
    # Reads split the frame anywhere before its newline; the last one holds
    # the newline and at least one byte after it.
    cuts = data.draw(st.sets(st.integers(1, len(frame) - 1), max_size=3), label="cuts")
    bounds = [0, *sorted(cuts), data.draw(st.integers(len(frame) + 1, len(blob)), label="read end")]
    stream = transport._FrameStream(_Reads([head] + [blob[a:b] for a, b in zip(bounds, bounds[1:])]))
    assert stream.recv() == first
    offset = len(head) + len(frame)
    with pytest.raises(DecodeError) as err:
        stream.recv()
    assert (str(err.value), err.value.offset) == (f"bytes past the end of the frame (byte {offset})", offset)


def test_a_silent_peer_is_a_federate_timeout():
    """The stream passes on the kernel's bound as it comes, a BlockingIOError,
    and the coordinator's endpoint names it as a FederateTimeout."""
    reader, writer = transport._coordinator_pair(0.05)
    stream = transport._FrameStream(reader)
    endpoint = transport.SocketEndpoint(stream, "mute", timeout_s=0.05)
    try:
        writer.sendall(b'["JOIN",')  # half a frame, then nothing
        with pytest.raises(BlockingIOError):
            stream.recv()
        with pytest.raises(FederateTimeout, match="^federate mute sent no ACK_SLOT for slot 0 "
                                                  "within 0.05 s$") as err:
            endpoint.finish_step()
        assert isinstance(err.value.__cause__, BlockingIOError)
    finally:
        writer.close()
        stream.close()
