import json
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from gridcosim import envelope as env
from gridcosim.envelope import decode_envelope, encode_envelope
from gridcosim.errors import DecodeError
from gridcosim.messages import MessageClass, MessageKind, SimMessage

import reference_envelope


# A monitoring poll as the wire carries it: the fields in SimMessage order,
# with the optional ticks the poll does not use sent as null.
_POLL = SimMessage(8, MessageClass.MONITORING, MessageKind.REQUEST, 0, 5, 64, 123_456,
                   sent_comm_tick=123_500, poll_period_ticks=100_000)


def test_grant_frame_bytes():
    frame = encode_envelope(env.grant(5, 600_000, []))
    assert frame == b'["GRANT",5,600000,[]]\n'
    frame = encode_envelope(env.grant(5, 600_000, [_POLL]))
    assert frame == (
        b'["GRANT",5,600000,'
        b'[[8,"monitoring","request",0,5,64,123456,123500,null,null,100000]]]\n'
    )


def test_ack_slot_frame_bytes():
    frame = encode_envelope(env.ack_slot(5, [(123_456, "comm", _POLL)], 950_000))
    assert frame == (
        b'["ACK_SLOT",5,[[123456,"comm",'
        b'[8,"monitoring","request",0,5,64,123456,123500,null,null,100000]]],'
        b'950000]\n'
    )
    assert env.ack_slot(5, [], -1) == ["ACK_SLOT", 5, [], -1]


def test_every_frame_is_its_type_slot_and_fields():
    assert env.join("it") == ["JOIN", 0, "it"]
    assert env.join_ack(2) == ["JOIN_ACK", 0, 2]
    assert env.error(3, "E", "boom") == ["ERROR", 3, "E", "boom"]
    assert encode_envelope(env.join("it")) == b'["JOIN",0,"it"]\n'


def test_protocol_has_five_frame_types():
    assert env.FRAME_LENGTHS == {"JOIN": 3, "JOIN_ACK": 3, "GRANT": 4, "ACK_SLOT": 4, "ERROR": 4}
    assert [f[0] for f in (env.join("it"), env.join_ack(0), env.grant(0, 0, []),
                             env.ack_slot(0, [], -1), env.error(0, "", ""))] == [
        env.JOIN, env.JOIN_ACK, env.GRANT, env.ACK_SLOT, env.ERROR]


def test_round_trip_simple():
    for e in (
        env.join("it"),
        env.join_ack(0),
        env.grant(3, 4000, []),
        env.ack_slot(3, [], -1),
        env.ack_slot(9, [], 12_000),
        env.error(2, "boom", "detail text"),
    ):
        assert decode_envelope(encode_envelope(e)) == e


def test_truncated_frame_is_decode_error():
    frame = encode_envelope(env.grant(5, 600_000, []))
    with pytest.raises(DecodeError):
        decode_envelope(frame[: len(frame) // 2])


def test_wrong_fields_rejected():
    for frame, error in [
        (b'["GRANT",5,600000]\n', "GRANT frame must have 4 items, got 3"),
        (b'["GRANT",5,600000,[],1]\n', "GRANT frame must have 4 items, got 5"),
        (b'["NOPE",5,0,[]]\n', "unknown envelope type: a str of 4"),
        (b'["GRANT",5.5,0,[]]\n', "slot must be an integer"),
        (b'["GRANT",1,3]\n', "GRANT frame must have 4 items, got 3"),
        (b'[1,2,3]\n', "unknown envelope type: a int"),
        (b'["GRANT",true,0,[]]\n', "slot must be an integer"),
        (b'[[1],5,0,[]]\n', "unknown envelope type: a list of 1"),
        (b'[{},5,0,[]]\n', "unknown envelope type: a dict of 0"),
        (b'{"t":"GRANT","slot":5,"body":{"end_ticks":0,"inbox":[]}}\n', "frame is not a non-empty array"),
        (b'[]\n', "frame is not a non-empty array"),
        (b'["JOIN",0]\n', "JOIN frame must have 3 items, got 2"),
        (b'["ERROR",0,"E"]\n', "ERROR frame must have 4 items, got 3"),
    ]:
        with pytest.raises(DecodeError) as err:
            decode_envelope(frame, offset=40)
        assert str(err.value) == f"{error} (byte 40)"


@pytest.mark.parametrize("frame", [
    b'["ACK_SLOT",' + b"7" * 5000 + b',[],-1]\n',
    b'["ACK_SLOT",4,[[' + b"7" * 5000 + b',"comm",[]]],-1]\n',
], ids=["huge-slot", "huge-at"])
def test_huge_integer_decodes_or_is_decode_error(frame):
    # Python 3.11 refuses to convert an integer literal of more than 4,300
    # digits with a ValueError; 3.10 decodes it.  Nothing else may escape.
    try:
        decode_envelope(frame, offset=100)
    except DecodeError as err:
        assert err.offset == 100


def test_decode_error_carries_offset():
    with pytest.raises(DecodeError) as err:
        decode_envelope(b'["GRANT",', offset=120)
    assert err.value.offset >= 120


@pytest.mark.parametrize("frame, offset", [
    (b"\xff\n", 100),
    (b"\x00\x00\x00{\n", 100),  # UTF-32 by encoding detection, but frames are UTF-8
    (b"\x00\x00\x00[\n", 100),
    (b'{"t":"\xff"}\n', 106),
    (b'["JOIN",0,"\xff"]\n', 111),
])
def test_non_utf8_frame_is_decode_error_at_its_byte(frame, offset):
    with pytest.raises(DecodeError) as err:
        decode_envelope(frame, offset=100)
    assert err.value.offset == offset


def test_json_error_offset_counts_bytes_not_characters():
    # "\u00e9" is two bytes in UTF-8; the error sits after it, at byte 15.
    with pytest.raises(DecodeError) as err:
        decode_envelope('["JOIN",0,"\u00e9",'.encode(), offset=100)
    assert err.value.offset == 115


_messages = st.builds(
    SimMessage,
    id=st.integers(min_value=0, max_value=2**63 - 1),
    msg_class=st.sampled_from(list(MessageClass)),
    kind=st.sampled_from(list(MessageKind)),
    src=st.integers(min_value=0, max_value=10_000),
    dst=st.integers(min_value=0, max_value=10_000),
    payload_bytes=st.integers(min_value=1, max_value=100_000),
    created_tick=st.integers(min_value=0, max_value=10**12),
    sent_comm_tick=st.none() | st.integers(min_value=0, max_value=10**12),
    delivered_comm_tick=st.none() | st.integers(min_value=0, max_value=10**12),
    correlation_id=st.none() | st.integers(min_value=0, max_value=2**63 - 1),
    poll_period_ticks=st.none() | st.integers(min_value=1, max_value=10**12),
)


@given(_messages)
def test_message_codec_round_trip(msg):
    assert SimMessage.from_wire(msg.to_wire()) == msg


# One builder per envelope type; text fields draw non-ASCII characters too.
_slots = st.integers(min_value=0, max_value=10**9)
_ticks = st.integers(min_value=0, max_value=10**14)
_envelopes = st.one_of(
    st.builds(env.join, st.text(min_size=1, max_size=10)),
    st.builds(env.error, _slots, st.text(max_size=10), st.text(max_size=40)),
    st.builds(env.join_ack, st.integers(min_value=0, max_value=64)),
    st.builds(env.grant, _slots, _ticks, st.lists(_messages, max_size=3)),
    st.builds(
        env.ack_slot,
        _slots,
        st.lists(st.tuples(_ticks, st.sampled_from(["it", "comm"]), _messages), max_size=3),
        st.integers(min_value=-1, max_value=10**14),
    ),
)


@given(_envelopes)
def test_envelope_round_trip_property(envelope):
    decoded = decode_envelope(encode_envelope(envelope))
    assert decoded == envelope
    if decoded[0] == env.GRANT:
        assert [SimMessage.from_wire(m) for m in decoded[3]] == [
            SimMessage.from_wire(m) for m in envelope[3]]
    if decoded[0] == env.ACK_SLOT:
        assert [SimMessage.from_wire(e[2]) for e in decoded[2]] == [
            SimMessage.from_wire(e[2]) for e in envelope[2]]


# The same builders with any value in an integer position (a bool, float,
# null or string the encoder must write as json.dumps does, never coerce)
# and any text, with quotes, backslashes, control characters, surrogates
# and non-ASCII characters, in the JOIN name, the ACK "to" and ERROR text.
_free_text = st.text(st.sampled_from('"\\\n\x00\x1f\x7f\u00e9\u2028\U0001f600')
                     | st.characters(exclude_categories=()), max_size=12)
_misfits = st.booleans() | st.floats() | st.none() | _free_text


def _loose(ints):
    return ints | _misfits


_loose_messages = st.builds(
    SimMessage,
    id=_loose(st.integers()),
    msg_class=st.sampled_from(list(MessageClass)),
    kind=st.sampled_from(list(MessageKind)),
    src=_loose(st.integers()),
    dst=_loose(st.integers()),
    payload_bytes=_loose(st.integers()),
    created_tick=_loose(_ticks),
    sent_comm_tick=_loose(_ticks),
    delivered_comm_tick=_loose(_ticks),
    correlation_id=_loose(st.integers()),
    poll_period_ticks=_loose(_ticks),
)
_loose_envelopes = st.one_of(
    st.builds(env.join, _free_text),
    st.builds(env.error, _loose(_slots), _free_text, _free_text),
    st.builds(env.join_ack, _loose(st.integers())),
    st.builds(env.grant, _loose(_slots), _loose(_ticks), st.lists(_loose_messages, max_size=3)),
    st.builds(
        env.ack_slot,
        _loose(_slots),
        st.lists(st.tuples(_loose(_ticks), _free_text, _loose_messages), max_size=3),
        _loose(st.integers(min_value=-1)),
    ),
)


@given(_envelopes | _loose_envelopes)
def test_encoding_is_compact_json_in_field_order(envelope):
    assert type(envelope) is list and envelope[0] in env.FRAME_LENGTHS
    assert encode_envelope(envelope) == json.dumps(envelope, separators=(",", ":")).encode() + b"\n"


# Frames written as list literals, not by the constructors: any type, with
# its fields in order, swapped, one missing or one extra.
_FIELDS = {env.JOIN: ("name",), env.JOIN_ACK: ("fid",), env.GRANT: ("end_ticks", "inbox"),
           env.ACK_SLOT: ("out", "next"), env.ERROR: ("code", "detail")}
_wire_messages = _messages.map(SimMessage.to_wire)
_field_values = {
    "name": _free_text,
    "fid": st.integers(min_value=0, max_value=64),
    "end_ticks": _ticks,
    "inbox": st.lists(_wire_messages, max_size=2),
    "out": st.lists(st.tuples(_ticks, st.sampled_from(["it", "comm"]), _wire_messages).map(list),
                    max_size=2),
    "next": st.integers(min_value=-1, max_value=10**14),
    "code": _free_text,
    "detail": _free_text,
}


@st.composite
def _plain_frames(draw):
    frame_type = draw(st.sampled_from(sorted(env.FRAME_LENGTHS)) | st.text(max_size=8))
    fields = list(_FIELDS.get(frame_type, ()))
    how = draw(st.sampled_from(["as is", "swapped", "missing", "extra"]))
    if how == "swapped":
        fields.reverse()
    elif how == "missing" and fields:
        del fields[draw(st.integers(min_value=0, max_value=len(fields) - 1))]
    elif how == "extra":
        fields.insert(draw(st.integers(min_value=0, max_value=len(fields))),
                      draw(st.sampled_from(sorted(_field_values))))
    return [frame_type, draw(_slots), *(draw(_field_values[field]) for field in fields)]


@given(_plain_frames())
def test_plain_list_frames_encode_as_json_and_decode_to_themselves(frame):
    encoded = encode_envelope(frame)
    assert encoded == json.dumps(frame, separators=(",", ":")).encode() + b"\n"
    if frame[0] not in env.FRAME_LENGTHS:
        with pytest.raises(DecodeError, match="unknown envelope type"):
            decode_envelope(encoded)
    elif len(frame) != 2 + len(_FIELDS[frame[0]]):
        with pytest.raises(DecodeError, match=f"{frame[0]} frame must have"):
            decode_envelope(encoded)
    else:
        assert decode_envelope(encoded) == frame


def _outcome(decode, frame: bytes, offset: int):
    try:
        return decode(frame, offset)
    except DecodeError as err:
        return str(err), err.offset


_blank = st.text(" \t\n\r", max_size=3).map(str.encode)


@st.composite
def _frames(draw):
    """A canonical frame, cut at any byte or mutated the ways a peer might get it wrong."""
    frame = encode_envelope(draw(_envelopes))
    how = draw(st.sampled_from(["cut", "blank", "item", "byte", "nest", "digits"]))
    if how == "cut":
        return frame[: draw(st.integers(min_value=0, max_value=len(frame)))]
    if how == "blank":
        return draw(_blank) + frame.rstrip(b"\n") + draw(_blank)
    if how == "item":  # an extra item, first or last
        item = draw(st.sampled_from([b'"GRANT"', b"1", b"{}", b"null", b"[]", b"1.5"]))
        return b"[" + item + b"," + frame[1:] if draw(st.booleans()) else frame[:-2] + b"," + item + b"]\n"
    if how == "byte":  # not UTF-8: a stray continuation, a cut sequence, a surrogate, past U+10FFFF
        at = draw(st.integers(min_value=0, max_value=len(frame)))
        stray = draw(st.sampled_from([b"\x80", b"\xc3", b"\xff", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]))
        return frame[:at] + stray + frame[at:]
    if how == "nest":
        depth = draw(st.sampled_from([3, 900, 100_000]))
        value = b"[" * depth + b"]" * depth
    else:
        value = b"7" * draw(st.sampled_from([4300, 4301, 10_000]))
    return re.sub(rb'^(\["[A-Z_]+",)\d+', lambda m: m[1] + value, frame, count=1)


_CANONICAL = encode_envelope(env.ack_slot(4, [], -1))


@settings(max_examples=300, deadline=None)
@given(frame=st.binary(max_size=80) | _frames(), offset=st.integers(min_value=0, max_value=10**6))
@example(frame=b" " + _CANONICAL, offset=0)
@example(frame=b"\t" + _CANONICAL[:-1] + b" \r\n", offset=7)
@example(frame=b"", offset=3)
@example(frame=b"\n", offset=3)
def test_decoder_matches_its_frozen_reference(frame, offset):
    """Every frame is accepted with an equal envelope or refused with the same error."""
    assert _outcome(decode_envelope, frame, offset) == _outcome(reference_envelope.decode_envelope, frame, offset)


def test_stream_splits_unambiguously():
    frames = [env.grant(i, i * 1000, []) for i in range(10)]
    blob = b"".join(encode_envelope(f) for f in frames)
    lines = blob.splitlines(keepends=True)
    assert len(lines) == 10
    assert [decode_envelope(line) for line in lines] == frames


def test_no_floats_on_the_wire():
    msg = SimMessage(8, MessageClass.MONITORING, MessageKind.REQUEST, 0, 5, 64, 123_456)
    frame = encode_envelope(env.ack_slot(1, [(123_456, "comm", msg)], 200_000))
    assert b"." not in frame.replace(b'"', b"")
