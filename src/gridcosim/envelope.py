"""Wire protocol between federates and the coordinator.

Frames are newline-delimited compact JSON objects in UTF-8 with exactly
the fields ``{"t": <type>, "slot": <int>, "body": <object>}``, in that
order; in the program a frame is that dict itself.  All times on the
wire are integer ticks; no floats ever cross a federate boundary, so both
transports observe bit-identical state.
A granted slot is one frame each way: ``GRANT`` carries the federate's
inbox, and ``ACK_SLOT`` exactly its publishes and its lookahead, both
required.  A message travels as the positional list of
``SimMessage.to_wire``, and a publish as the list ``[at, to, msg]``: no key
is repeated per message.  The GRANT and ACK_SLOT frames of every slot are
written from one template each, and frames are read with one scan of the
JSON scanner; both give exactly the bytes and results of ``json.dumps`` and
``json.loads``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _text

from .errors import DecodeError, shape
from .messages import SimMessage

JOIN, JOIN_ACK, GRANT, ACK_SLOT, ERROR = "JOIN", "JOIN_ACK", "GRANT", "ACK_SLOT", "ERROR"
FRAME_TYPES = frozenset((JOIN, JOIN_ACK, GRANT, ACK_SLOT, ERROR))
_FIELDS = frozenset(("t", "slot", "body"))
# Built once: json.dumps(..., separators=...) would build an encoder per
# frame and json.loads(bytes) would detect the encoding of every frame.
# Neither object keeps state between calls, so every stream shares them.
_ENCODER = json.JSONEncoder(separators=(",", ":"))
_DECODER = json.JSONDecoder()
_scan = _DECODER.scan_once

# What json.dumps writes for the two frames of every granted slot.  A %d
# takes only a value checked to be an exact int, and a %s only text the
# JSON escaper or the JSON encoder wrote, or a message's optional int or
# "null": a float, bool or null is never coerced into an integer position.
_GRANT = '{"t":"GRANT","slot":%d,"body":{"end_ticks":%d,"inbox":[%s]}}\n'
_ACK_SLOT = '{"t":"ACK_SLOT","slot":%d,"body":{"out":[%s],"next":%d}}\n'
_MESSAGE = "[%d,%s,%s,%d,%d,%d,%d,%s,%s,%s,%s]"
_OUT_ENTRY = "[%d,%s,%s]"


def _message(msg) -> str:
    """One wire message as json.dumps writes it; an ill-typed one goes through the encoder."""
    if type(msg) is list and len(msg) == 11:
        mid, cls, kind, src, dst, size, ct, sct, dct, corr, ppt = msg
        if (type(mid) is int and type(src) is int and type(dst) is int and type(size) is int
                and type(ct) is int and type(cls) is str and type(kind) is str
                and (sct is None or type(sct) is int) and (dct is None or type(dct) is int)
                and (corr is None or type(corr) is int) and (ppt is None or type(ppt) is int)):
            return _MESSAGE % (mid, _text(cls), _text(kind), src, dst, size, ct,
                               "null" if sct is None else sct, "null" if dct is None else dct,
                               "null" if corr is None else corr, "null" if ppt is None else ppt)
    return _ENCODER.encode(msg)


def _out_entry(entry) -> str:
    if type(entry) is list and len(entry) == 3:
        at, to, msg = entry
        if type(at) is int and type(to) is str:
            return _OUT_ENTRY % (at, _text(to), _message(msg))
    return _ENCODER.encode(entry)


def encode_envelope(frame: dict) -> bytes:
    """The bytes of ``json.dumps(frame, separators=(",", ":"))`` plus a newline.

    A GRANT or ACK_SLOT whose body has its type's keys, in order, and a
    value of the position's type at each position is written from its
    type's template in one ``%``; any other frame goes through the JSON
    encoder whole, and so does a message or ``out`` entry of the wrong shape
    on its own.
    """
    frame_type, slot, body = frame["t"], frame["slot"], frame["body"]
    if type(slot) is int:
        keys = tuple(body)
        if frame_type == GRANT and keys == ("end_ticks", "inbox"):
            end_ticks, inbox = body["end_ticks"], body["inbox"]
            if type(end_ticks) is int and type(inbox) is list:
                inbox = ",".join(map(_message, inbox)) if inbox else ""
                return (_GRANT % (slot, end_ticks, inbox)).encode()
        elif frame_type == ACK_SLOT and keys == ("out", "next"):
            out, next_tick = body["out"], body["next"]
            if type(out) is list and type(next_tick) is int:
                out = ",".join(map(_out_entry, out)) if out else ""
                return (_ACK_SLOT % (slot, out, next_tick)).encode()
    return _ENCODER.encode(frame).encode() + b"\n"


def decode_envelope(frame: bytes, offset: int = 0) -> dict:
    """Decode one UTF-8 frame; ``offset`` is reported in errors for stream context."""
    try:
        text = frame.decode()
    except UnicodeDecodeError as exc:
        raise DecodeError(f"frame is not UTF-8: {exc.reason}", offset + exc.start) from exc
    try:
        # One scan reads a frame that is a JSON value from its first byte to
        # at most a newline.  Whitespace around the value, or no value, takes
        # the whole decoder, which accepts or refuses it as it always has.
        try:
            data, end = _scan(text, 0)
            whole = end == len(text) or text[end:] == "\n"
        except StopIteration:
            whole = False
        if not whole:
            data = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        at = offset + len(text[: exc.pos].encode())
        raise DecodeError(f"invalid JSON: {exc.msg}", at) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise DecodeError(f"invalid JSON: {exc}", offset) from exc
    except RecursionError:
        raise DecodeError("JSON nested too deeply", offset) from None
    if type(data) is not dict:
        raise DecodeError("frame is not an object", offset)
    if data.keys() != _FIELDS:
        raise DecodeError(f"frame fields must be exactly t/slot/body, got {sorted(data)}", offset)
    frame_type = data["t"]
    if type(frame_type) is not str or frame_type not in FRAME_TYPES:
        raise DecodeError(f"unknown envelope type: {shape(frame_type)}", offset)
    if type(data["slot"]) is not int:
        raise DecodeError("slot must be an integer", offset)
    if type(data["body"]) is not dict:
        raise DecodeError("body must be an object", offset)
    return data


# Convenience constructors for the frames the protocol actually sends.

def join(name: str) -> dict:
    return {"t": JOIN, "slot": 0, "body": {"name": name}}


def join_ack(fid: int) -> dict:
    return {"t": JOIN_ACK, "slot": 0, "body": {"fid": fid}}


def grant(slot: int, end_ticks: int, inbox: list[SimMessage]) -> dict:
    """Slot grant carrying the messages delivered to the federate since its last grant."""
    return {"t": GRANT, "slot": slot,
            "body": {"end_ticks": end_ticks, "inbox": [msg.to_wire() for msg in inbox]}}


def ack_slot(slot: int, out: list[tuple[int, str, SimMessage]], next_tick: int) -> dict:
    """Slot acknowledgment carrying the outbox of the federate's ``step`` as
    is, ``(at_tick, to_name, msg)`` publishes, and its lookahead ``next_tick``."""
    return {"t": ACK_SLOT, "slot": slot,
            "body": {"out": [[at, to, msg.to_wire()] for at, to, msg in out], "next": next_tick}}


def error(slot: int, code: str, detail: str) -> dict:
    return {"t": ERROR, "slot": slot, "body": {"code": code, "detail": detail}}
