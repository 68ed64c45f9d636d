"""Domain types: message classes, simulation messages, nodes."""

from __future__ import annotations

import enum
from dataclasses import dataclass


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


#: Wire value to member, for decoding without a Python-level ``Enum`` call.
_CLASS_BY_VALUE = {member.value: member for member in MessageClass}
_KIND_BY_VALUE = {member.value: member for member in MessageKind}
#: Wire fields that must be ``int``, and those that may also be ``None``.
_INT_FIELDS = ("id", "src", "dst", "len", "ct")
_OPTIONAL_INT_FIELDS = ("sct", "dct", "corr", "ppt")


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

    def to_wire(self) -> dict:
        """Wire form: integers and strings only, times in ticks."""
        return {
            "id": self.id,
            "cls": self.msg_class.value,
            "kind": self.kind.value,
            "src": self.src,
            "dst": self.dst,
            "len": self.payload_bytes,
            "ct": self.created_tick,
            "sct": self.sent_comm_tick,
            "dct": self.delivered_comm_tick,
            "corr": self.correlation_id,
            "ppt": self.poll_period_ticks,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "SimMessage":
        """Inverse of ``to_wire``.

        A missing field or an unknown class or kind raises ``KeyError``; a
        value of the wrong type raises ``TypeError``.  Integer fields must be
        exactly ``int`` (a float or bool tick would reach the outputs).
        """
        for key in _INT_FIELDS:
            if type(data[key]) is not int:
                raise TypeError(f"message field {key!r} must be an integer, got {data[key]!r}")
        for key in _OPTIONAL_INT_FIELDS:
            value = data.get(key)
            if value is not None and type(value) is not int:
                raise TypeError(f"message field {key!r} must be an integer or null, got {value!r}")
        return cls(
            id=data["id"],
            msg_class=_CLASS_BY_VALUE[data["cls"]],
            kind=_KIND_BY_VALUE[data["kind"]],
            src=data["src"],
            dst=data["dst"],
            payload_bytes=data["len"],
            created_tick=data["ct"],
            sent_comm_tick=data.get("sct"),
            delivered_comm_tick=data.get("dct"),
            correlation_id=data.get("corr"),
            poll_period_ticks=data.get("ppt"),
        )


@dataclass(slots=True)
class NodeDescriptor:
    """One endpoint of the modeled region, with a planar position in km."""

    id: int
    kind: NodeKind
    x_km: float
    y_km: float
