"""Wire protocol between federates and the coordinator.

Frames are newline-delimited compact JSON arrays in UTF-8, ``[type, slot,
...fields]``, with a fixed number of items per type; in the program a frame
is that list itself.  All times on the wire are integer ticks; no floats
ever cross a federate boundary, so both transports observe bit-identical
state.
A federate's ``["JOIN", 0, name]`` is the whole handshake, and no frame
answers it.  A granted slot is one frame each way: ``["GRANT", slot, end_ticks, inbox]``
carries the federate's inbox, and ``["ACK_SLOT", slot, out, next]`` exactly
its publishes and its lookahead.  A message travels as the positional list
of ``SimMessage.to_wire``, and a publish as the list ``[at, to, msg]``: no
key is repeated per frame or per message.  The GRANT and ACK_SLOT frames of
every slot are written from one template each, and frames are read with one
scan of the JSON scanner; both give exactly the bytes and results of
``json.dumps`` and ``json.loads``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _text

from .errors import DecodeError, shape
from .messages import SimMessage

JOIN, GRANT, ACK_SLOT, ERROR = "JOIN", "GRANT", "ACK_SLOT", "ERROR"
# The number of items in a frame of each type, its type and slot included.
FRAME_LENGTHS = {JOIN: 3, GRANT: 4, ACK_SLOT: 4, ERROR: 4}
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
_GRANT = '["GRANT",%d,%d,[%s]]\n'
_ACK_SLOT = '["ACK_SLOT",%d,[%s],%d]\n'
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


def encode_envelope(frame: list) -> bytes:
    """The bytes of ``json.dumps(frame, separators=(",", ":"))`` plus a newline.

    A GRANT or ACK_SLOT with a value of the position's type at each position
    is written from its type's template in one ``%``; any other frame goes
    through the JSON encoder whole, and so does a message or ``out`` entry
    of the wrong shape on its own.
    """
    if len(frame) == 4:
        frame_type, slot, first, second = frame
        if type(slot) is int:
            if frame_type == GRANT and type(first) is int and type(second) is list:
                inbox = ",".join(map(_message, second)) if second else ""
                return (_GRANT % (slot, first, inbox)).encode()
            if frame_type == ACK_SLOT and type(first) is list and type(second) is int:
                out = ",".join(map(_out_entry, first)) if first else ""
                return (_ACK_SLOT % (slot, out, second)).encode()
    return _ENCODER.encode(frame).encode() + b"\n"


def decode_envelope(frame: bytes, offset: int = 0) -> list:
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
    if type(data) is not list or not data:
        raise DecodeError("frame is not a non-empty array", offset)
    frame_type = data[0]
    if type(frame_type) is not str or frame_type not in FRAME_LENGTHS:
        raise DecodeError(f"unknown envelope type: {shape(frame_type)}", offset)
    if len(data) != FRAME_LENGTHS[frame_type]:
        raise DecodeError(f"{frame_type} frame must have {FRAME_LENGTHS[frame_type]} items, "
                          f"got {len(data)}", offset)
    if type(data[1]) is not int:
        raise DecodeError("slot must be an integer", offset)
    return data


# Convenience constructors for the frames the protocol actually sends.

def join(name: str) -> list:
    return [JOIN, 0, name]


def grant(slot: int, end_ticks: int, inbox: list[SimMessage]) -> list:
    """Slot grant carrying the messages delivered to the federate since its last grant."""
    return [GRANT, slot, end_ticks, [msg.to_wire() for msg in inbox]]


def ack_slot(slot: int, out: list[tuple[int, str, SimMessage]], next_tick: int) -> list:
    """Slot acknowledgment carrying the outbox of the federate's ``step`` as
    is, ``(at_tick, to_name, msg)`` publishes, and its lookahead ``next_tick``."""
    return [ACK_SLOT, slot, [[at, to, msg.to_wire()] for at, to, msg in out], next_tick]


def error(slot: int, code: str, detail: str) -> list:
    return [ERROR, slot, code, detail]
