"""A frozen reference of the wire decoder, as ``json.loads`` plus checks.

It decodes each frame with ``json.JSONDecoder.decode``, which skips
whitespace around the value and refuses anything after it, and then checks
the envelope's shape.  ``gridcosim.envelope.decode_envelope`` reads frames
with one scan of the JSON scanner instead; it must accept exactly the frames
this accepts, with an equal envelope, and refuse the others with the same
``DecodeError`` text and offset.  It restates the five frame types and
shares no code with the package's decoder.
"""

from __future__ import annotations

import json

from gridcosim.errors import DecodeError

_TYPES = frozenset(("JOIN", "JOIN_ACK", "GRANT", "ACK_SLOT", "ERROR"))
_FIELDS = frozenset(("t", "slot", "body"))
_DECODER = json.JSONDecoder()


def _shape(value) -> str:
    if type(value) in (str, list, dict):
        return f"a {type(value).__name__} of {len(value)}"
    return f"a {type(value).__name__}"


def decode_envelope(frame: bytes, offset: int = 0) -> dict:
    try:
        text = frame.decode()
    except UnicodeDecodeError as exc:
        raise DecodeError(f"frame is not UTF-8: {exc.reason}", offset + exc.start) from exc
    try:
        data = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        at = offset + len(text[: exc.pos].encode())
        raise DecodeError(f"invalid JSON: {exc.msg}", at) from exc
    except ValueError as exc:
        raise DecodeError(f"invalid JSON: {exc}", offset) from exc
    except RecursionError:
        raise DecodeError("JSON nested too deeply", offset) from None
    if type(data) is not dict:
        raise DecodeError("frame is not an object", offset)
    if data.keys() != _FIELDS:
        raise DecodeError(f"frame fields must be exactly t/slot/body, got {sorted(data)}", offset)
    try:
        known = data["t"] in _TYPES
    except TypeError:
        known = False
    if not known:
        raise DecodeError(f"unknown envelope type: {_shape(data['t'])}", offset)
    if type(data["slot"]) is not int:
        raise DecodeError("slot must be an integer", offset)
    if type(data["body"]) is not dict:
        raise DecodeError("body must be an object", offset)
    return data
