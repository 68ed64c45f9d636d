"""The tests' exchange row type, and record columns built from rows as test input."""

from __future__ import annotations

from typing import NamedTuple

from gridcosim.itfed import CommLegs, Exchanges
from gridcosim.messages import _CLASS_CODE, _KIND_CODE, MISSING, MessageClass


class Exchange(NamedTuple):
    """One exchange as a row, the form the reference reports read; None
    where the columns hold ``MISSING``."""

    id: int
    msg_class: MessageClass
    node: int
    created_tick: int
    delivered_tick: int | None = None
    d_comm_ticks: int | None = None
    score: int | None = None


def exchanges(rows) -> Exchanges:
    """``Exchange`` rows as ``Exchanges`` columns, in the given order."""
    columns = Exchanges()
    for row in rows:
        columns.ids.append(row.id)
        columns.classes.append(_CLASS_CODE[row.msg_class])
        columns.nodes.append(row.node)
        columns.created.append(row.created_tick)
        for column, value in ((columns.delivered, row.delivered_tick),
                              (columns.d_comm, row.d_comm_ticks), (columns.scores, row.score)):
            column.append(MISSING if value is None else value)
    return columns


def comm_legs(legs) -> CommLegs:
    """(class, kind, d_it, d_comm, delivered) tuples as ``CommLegs`` columns."""
    columns = CommLegs()
    for msg_class, kind, d_it, d_comm, delivered in legs:
        columns.classes.append(_CLASS_CODE[msg_class])
        columns.kinds.append(_KIND_CODE[kind])
        columns.d_it.append(d_it)
        columns.d_comm.append(d_comm)
        columns.delivered.append(delivered)
    return columns
