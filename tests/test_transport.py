import bisect
import dataclasses
import itertools
import json
import socket
import threading
import time

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
    assert {"JOIN", "JOIN_ACK", "GRANT", "ACK_SLOT"} <= {frame[0] for frame in decoded}
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
        if not reader.readline().startswith(b'["JOIN_ACK"'):
            return  # the coordinator refused the join and closed the stream
        while not reader.readline().startswith(b'["GRANT"'):
            pass
        if isinstance(federate.ack_fields, bytes):
            sock.sendall(federate.ack_fields)
        else:
            _send_frame(sock, "ACK_SLOT", federate.ack_fields)
        reader.read()


def _run_with_raw_ack(monkeypatch, ack_fields):
    monkeypatch.setattr(transport, "run_federate_client", _raw_client)
    good = EchoFederate("good", "raw")
    run_federation(1000, 3, [RawFederate(ack_fields), good], transport="socket", timeout_s=5.0)


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


def test_federate_that_closes_after_join_ack_is_named(monkeypatch):
    # The second federate joins only once the quitter has closed its end,
    # so the coordinator's first grant to the quitter is the failing send.
    closed = threading.Event()

    def quitting_client(sock, federate):
        if federate.name != "quitter":
            closed.wait(5.0)
            return _real_client(sock, federate)
        with sock, sock.makefile("rb") as reader:
            _send_frame(sock, "JOIN", ["quitter"])
            assert reader.readline().startswith(b'["JOIN_ACK"')
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
            coordinator.sendall(b'["JOIN_ACK",0,0]\n')
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
    """Frames written in chunks of any size, from one byte to all at once,
    and the stream then closed at any byte: every whole frame is read back,
    ``offset`` moves by each frame's length, and what follows is None at a
    frame boundary or a truncated frame at the byte of the cut."""
    frames = [env.encode_envelope(e) for e in envelopes]
    blob = b"".join(frames)
    ends = list(itertools.accumulate(map(len, frames)))
    cut = data.draw(st.just(len(blob)) | st.integers(0, len(blob)), label="cut")
    writer, reader = socket.socketpair()
    reader.settimeout(5.0)  # a read that waited for bytes never sent would fail, not hang
    stream = transport._FrameStream(reader)
    received, sent = [], 0
    try:
        while sent < cut:
            chunk_end = min(cut, sent + data.draw(st.integers(1, len(blob)), label="chunk"))
            writer.sendall(blob[sent:chunk_end])
            sent = chunk_end
            # Read each frame once it is whole, so that no read waits.
            while len(received) < bisect.bisect_right(ends, sent):
                received.append(stream.recv())
                assert stream.offset == ends[len(received) - 1]
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
    """A frame spanning several ``recv`` calls, sent in small pieces and
    followed by a frame cut short: the long frame is read back whole and
    the cut is a truncated frame at its byte."""
    long_grant = env.grant(3, 4000, [make_msg(i, i) for i in range(3000)])
    frames = [env.encode_envelope(long_grant), env.encode_envelope(env.join_ack(1))]
    assert len(frames[0]) > 2 * transport._RECV_BYTES
    blob = b"".join(frames)[:-5]
    writer, reader = socket.socketpair()
    reader.settimeout(5.0)
    stream = transport._FrameStream(reader)

    def write():
        for start in range(0, len(blob), 1000):
            writer.sendall(blob[start:start + 1000])
        writer.close()

    thread = threading.Thread(target=write)
    thread.start()
    try:
        assert stream.recv() == long_grant
        assert stream.offset == len(frames[0])
        with pytest.raises(DecodeError) as err:
            stream.recv()
        assert (str(err.value), err.value.offset) == (f"truncated frame (byte {len(blob)})", len(blob))
    finally:
        thread.join()
        writer.close()
        stream.close()


def test_a_silent_peer_is_a_federate_timeout():
    writer, reader = socket.socketpair()
    reader.settimeout(0.05)
    stream = transport._FrameStream(reader)
    try:
        writer.sendall(b'["JOIN",')  # half a frame, then nothing
        with pytest.raises(FederateTimeout):
            stream.recv()
    finally:
        writer.close()
        stream.close()
