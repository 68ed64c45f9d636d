"""A frozen reference of the wire decoder, as ``json.loads`` plus checks.

It decodes each frame with ``json.JSONDecoder.decode``, which skips
whitespace around the value and refuses anything after it, and then checks
the envelope's shape: an array whose first item is a known type, with that
type's number of items and an integer slot second.
``gridcosim.envelope.decode_envelope`` reads frames with one scan of the
JSON scanner instead; it must accept exactly the frames this accepts, with
an equal envelope, and refuse the others with the same ``DecodeError`` text
and offset.  It restates the five frame types and their item counts and
shares no code with the package's decoder.
"""

from __future__ import annotations

import json

from gridcosim.errors import DecodeError

_ITEMS = {"JOIN": 3, "JOIN_ACK": 3, "GRANT": 4, "ACK_SLOT": 4, "ERROR": 4}
_DECODER = json.JSONDecoder()


def _shape(value) -> str:
    if type(value) in (str, list, dict):
        return f"a {type(value).__name__} of {len(value)}"
    return f"a {type(value).__name__}"


def decode_envelope(frame: bytes, offset: int = 0) -> list:
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
    if not isinstance(data, list) or len(data) == 0:
        raise DecodeError("frame is not a non-empty array", offset)
    try:
        items = _ITEMS.get(data[0])
    except TypeError:
        items = None
    if items is None:
        raise DecodeError(f"unknown envelope type: {_shape(data[0])}", offset)
    if len(data) != items:
        raise DecodeError(f"{data[0]} frame must have {items} items, got {len(data)}", offset)
    if type(data[1]) is not int:
        raise DecodeError("slot must be an integer", offset)
    return data
