"""Domain types: message classes, simulation messages, nodes."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import shape


class MessageClass(enum.Enum):
    """Traffic class of an application message."""

    MONITORING = "monitoring"
    CONTROL = "control"

    # Members are singletons, so identity hashing is exact; Enum's own
    # __hash__ is a Python-level call on every dict and set lookup.
    __hash__ = object.__hash__


class MessageKind(enum.Enum):
    REQUEST = "request"
    RESPONSE = "response"
    CONTROL_COMMAND = "control_command"
    CONTROL_ACK = "control_ack"
    RATE_UPDATE = "rate_update"

    __hash__ = object.__hash__


class NodeKind(enum.Enum):
    DMS = "dms"
    SUBSTATION = "substation"
    HVA_LV = "hva_lv"
    SWITCH = "switch"
    PV_PLANT = "pv_plant"
    WIND_FARM = "wind_farm"
    LTE_BS = "lte_bs"
    DMR_AP = "dmr_ap"

    __hash__ = object.__hash__


#: Wire value to member and back, without a Python-level ``Enum.value`` call.
_CLASS_BY_VALUE = {member.value: member for member in MessageClass}
_KIND_BY_VALUE = {member.value: member for member in MessageKind}
_CLASS_VALUE = {member: value for value, member in _CLASS_BY_VALUE.items()}
_KIND_VALUE = {member: value for value, member in _KIND_BY_VALUE.items()}

#: Member to its code in the record columns (``itfed.CommLegs``,
#: ``itfed.Exchanges``): its index in declaration order, and back.
_CLASSES = tuple(MessageClass)
_KINDS = tuple(MessageKind)
_CLASS_CODE = {cls: code for code, cls in enumerate(_CLASSES)}
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}
#: Stands for an absent value in the record columns, whose ticks, ids and
#: scores are never negative.
MISSING = -1


@dataclass(slots=True)
class SimMessage:
    """One application message, with timestamps from both perspectives.

    The application side stamps ``created_tick`` at emission; the destination
    endpoint takes its delivery tick from the slot it sees the message in.
    The network side stamps ``sent_comm_tick`` when the message enters the
    network model and ``delivered_comm_tick`` when transmission completes.
    The application-side delay always includes the federation
    synchronization overhead, so d_it >= d_comm for any completed message.
    """

    id: int
    msg_class: MessageClass
    kind: MessageKind
    src: int
    dst: int
    payload_bytes: int
    created_tick: int
    sent_comm_tick: int | None = None
    delivered_comm_tick: int | None = None
    correlation_id: int | None = None
    poll_period_ticks: int | None = None

    def to_wire(self) -> list:
        """Wire form: the fields in order, integers and strings only, times in ticks."""
        return [self.id, _CLASS_VALUE[self.msg_class], _KIND_VALUE[self.kind], self.src,
                self.dst, self.payload_bytes, self.created_tick, self.sent_comm_tick,
                self.delivered_comm_tick, self.correlation_id, self.poll_period_ticks]

    @classmethod
    def from_wire(cls, data: list) -> "SimMessage":
        """Inverse of ``to_wire``.

        Anything but a list of 11 items, or a value of the wrong type, raises
        ``TypeError``; an unknown class or kind raises ``KeyError``.  ``id``,
        ``src``, ``dst``, ``len`` and ``ct`` must be exactly ``int`` (a float
        or bool tick would reach the outputs); ``sct``, ``dct``, ``corr`` and
        ``ppt`` may also be ``None``.
        """
        if type(data) is not list or len(data) != 11:
            raise TypeError(f"message must be a list of 11 fields, not {shape(data)}")
        mid, cls_value, kind_value, src, dst, size, ct, sct, dct, corr, ppt = data
        for value in (mid, src, dst, size, ct):
            if type(value) is not int:
                raise TypeError(f"message id, src, dst, len and ct must be integers, not {shape(value)}")
        for value in (sct, dct, corr, ppt):
            if value is not None and type(value) is not int:
                raise TypeError(f"message sct, dct, corr and ppt must be integers or null, not {shape(value)}")
        try:
            msg_class, kind = _CLASS_BY_VALUE[cls_value], _KIND_BY_VALUE[kind_value]
        except (KeyError, TypeError):
            raise KeyError(f"unknown message class {shape(cls_value)} or kind {shape(kind_value)}") from None
        return cls(mid, msg_class, kind, src, dst, size, ct, sct, dct, corr, ppt)


@dataclass(slots=True)
class NodeDescriptor:
    """One endpoint of the modeled region, with a planar position in km."""

    id: int
    kind: NodeKind
    x_km: float
    y_km: float
