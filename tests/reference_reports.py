"""The reports as they were built from whole-run lists, kept for comparison.

These are the list-based ``exchange_score``, ``reliability_series`` and
``delay_series`` that ``gridcosim.metrics`` replaced with column readers
that read one interval's run of rows at a time.  They group every record of
the run in a dict and sort at the end, so their result does not depend on
the order of the records; the column readers must give equal rows on any
input in the order a run records them: exchanges with creation intervals
that never decrease, legs with delivery ticks that never decrease.  Only the
statistics helpers are shared.

``write_exchange_log`` is the exchange log as it was written from one row
object per exchange, before ``runner.write_exchange_log`` read the columns;
from the same exchanges, in any order, the two must write the same bytes.
"""

from __future__ import annotations

import csv
from collections import defaultdict

from gridcosim.messages import MessageClass
from gridcosim.metrics import DelayStats, IntervalMetrics, class_reliability_ci, percentile_nearest_rank
from gridcosim.simtime import TICKS_PER_SECOND


def exchange_score(d_it_ticks, created_tick, limit_ticks, end_tick):
    """1 when the round trip met the limit, else 0; None while undecided."""
    if d_it_ticks is not None:
        return 1 if d_it_ticks <= limit_ticks else 0
    return None if created_tick + limit_ticks > end_tick else 0


def reliability_series(exchanges, interval_ticks):
    """Class reliability per (creation interval, class) of ``records.Exchange`` rows."""
    scores = defaultdict(lambda: defaultdict(list))
    for ex in exchanges:
        if ex.score is not None:
            scores[(ex.created_tick // interval_ticks, ex.msg_class)][ex.node].append(ex.score)
    series = []
    for (interval, msg_class), by_node in scores.items():
        mean, half = class_reliability_ci({node: sum(s) / len(s) for node, s in by_node.items()})
        series.append(IntervalMetrics(interval, msg_class, mean, half))
    series.sort(key=lambda m: (m.interval, m.msg_class.value))
    return series


def delay_series(legs, interval_ticks):
    """Network delay mean and p95 per (delivery interval, class) of leg tuples."""
    by_key = defaultdict(list)
    for msg_class, _kind, _d_it, d_comm, delivered_tick in legs:
        by_key[(delivered_tick // interval_ticks, msg_class)].append(d_comm / TICKS_PER_SECOND)
    series = [
        DelayStats(interval, msg_class, sum(values) / len(values), percentile_nearest_rank(values, 95.0))
        for (interval, msg_class), values in by_key.items()
    ]
    series.sort(key=lambda d: (d.interval, d.msg_class.value))
    return series


def write_exchange_log(path, exchanges, interval_ticks):
    """``exchange_log.csv`` of ``records.Exchange`` rows: by creation interval,
    then class in ``MessageClass`` order, then the given order; None is an
    empty cell."""
    order = list(MessageClass)
    rows = sorted(exchanges, key=lambda rec: (rec.created_tick // interval_ticks,
                                              order.index(rec.msg_class)))

    def seconds(ticks):
        return format(ticks / TICKS_PER_SECOND, ".10g")

    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "class", "node", "created_s", "delivered_s",
                         "d_it_s", "d_comm_s", "within_limit"])
        writer.writerows([
            rec.id,
            rec.msg_class.value,
            rec.node,
            seconds(rec.created_tick),
            "" if rec.delivered_tick is None else seconds(rec.delivered_tick),
            "" if rec.delivered_tick is None else seconds(rec.delivered_tick - rec.created_tick),
            "" if rec.d_comm_ticks is None else seconds(rec.d_comm_ticks),
            "" if rec.score is None else rec.score,
        ] for rec in rows)
