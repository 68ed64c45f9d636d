"""Wire protocol between federates and the coordinator.

Frames are newline-delimited compact JSON objects in UTF-8 with exactly
the fields ``{"t": <type>, "slot": <int>, "body": <object>}``, in that
order.  All times on the wire are integer ticks; no floats ever cross a
federate boundary, so both transports observe bit-identical state.
A granted slot is one frame each way: ``GRANT`` carries the federate's
inbox, and ``ACK_SLOT`` exactly its publishes and its lookahead, both
required.  A message travels as the positional list of
``SimMessage.to_wire``, and a publish as the list ``[at, to, msg]``: no key
is repeated per message.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

from .errors import DecodeError, shape
from .messages import SimMessage


class EnvelopeType(enum.Enum):
    JOIN = "JOIN"
    JOIN_ACK = "JOIN_ACK"
    GRANT = "GRANT"
    ACK_SLOT = "ACK_SLOT"
    ERROR = "ERROR"


@dataclass(slots=True)
class FederateEnvelope:
    type: EnvelopeType
    slot: int
    body: dict


_ENVELOPE_TYPES = {member.value: member for member in EnvelopeType}
_TYPE_VALUE = {member: value for value, member in _ENVELOPE_TYPES.items()}
_FIELDS = frozenset(("t", "slot", "body"))
# Built once: json.dumps(..., separators=...) would build an encoder per
# frame and json.loads(bytes) would detect the encoding of every frame.
# Neither object keeps state between calls, so every stream shares them.
_ENCODER = json.JSONEncoder(separators=(",", ":"))
_DECODER = json.JSONDecoder()


def encode_envelope(env: FederateEnvelope) -> bytes:
    frame = {"t": _TYPE_VALUE[env.type], "slot": env.slot, "body": env.body}
    return _ENCODER.encode(frame).encode() + b"\n"


def decode_envelope(frame: bytes, offset: int = 0) -> FederateEnvelope:
    """Decode one UTF-8 frame; ``offset`` is reported in errors for stream context."""
    try:
        text = frame.decode()
    except UnicodeDecodeError as exc:
        raise DecodeError(f"frame is not UTF-8: {exc.reason}", offset + exc.start) from exc
    try:
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
    try:
        env_type = _ENVELOPE_TYPES[data["t"]]
    except (KeyError, TypeError):
        raise DecodeError(f"unknown envelope type: {shape(data['t'])}", offset) from None
    slot = data["slot"]
    if type(slot) is not int:
        raise DecodeError("slot must be an integer", offset)
    body = data["body"]
    if type(body) is not dict:
        raise DecodeError("body must be an object", offset)
    return FederateEnvelope(env_type, slot, body)


# Convenience constructors for the envelopes the protocol actually sends.

def join(name: str) -> FederateEnvelope:
    return FederateEnvelope(EnvelopeType.JOIN, 0, {"name": name})


def join_ack(fid: int) -> FederateEnvelope:
    return FederateEnvelope(EnvelopeType.JOIN_ACK, 0, {"fid": fid})


def grant(slot: int, end_ticks: int, inbox: list[SimMessage]) -> FederateEnvelope:
    """Slot grant carrying the messages delivered to the federate since its last grant."""
    return FederateEnvelope(
        EnvelopeType.GRANT, slot,
        {"end_ticks": end_ticks, "inbox": [msg.to_wire() for msg in inbox]},
    )


def ack_slot(slot: int, out: list[tuple[int, str, SimMessage]], next_tick: int) -> FederateEnvelope:
    """Slot acknowledgment carrying the federate's ``(at_tick, to_name, msg)``
    publishes and its lookahead ``next_tick``, -1 for every slot."""
    return FederateEnvelope(EnvelopeType.ACK_SLOT, slot, {
        "out": [[at, to, msg.to_wire()] for at, to, msg in out], "next": next_tick})


def error(slot: int, code: str, detail: str) -> FederateEnvelope:
    return FederateEnvelope(EnvelopeType.ERROR, slot, {"code": code, "detail": detail})
