"""Reliability, confidence-interval and delay-mismatch metrics.

``exchange_scores`` is the one place a round trip meets its class delay
limit: an exchange scores 1 when its application-side round trip, in ticks,
met the limit, 0 when it did not or was never answered, and ``MISSING``
when the run ended before that was decided.  Reliability of a node over an
interval is the mean of its stored scores.  Class reliability aggregates the
per-node values into a mean with a 95% confidence interval using the sample
standard deviation.  The delay-mismatch figure (in percent) is the mean
relative gap between application-side and network-side delays over
completed messages; it gauges how much error the timeslot synchronization
introduces.

The reports read the federate's record columns (``itfed.Exchanges``,
``itfed.CommLegs``) one interval at a time, in the order the run recorded
them, and build no Python object per record.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .errors import EmptyDistribution, GridCoSimError
from .messages import _CLASSES, MISSING, MessageClass
from .simtime import TICKS_PER_SECOND

#: Two-sided 95% normal quantile.
CI_FACTOR = 1.96

# Class codes in the order report rows list classes: by class name.
_CODES_BY_NAME = sorted(range(len(_CLASSES)), key=lambda code: _CLASSES[code].value)


@dataclass(slots=True)
class IntervalMetrics:
    """Per-interval, per-class reliability snapshot."""

    interval: int
    msg_class: MessageClass
    mean: float
    ci_half_width: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_half_width

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_half_width

    @property
    def ci_low_clamped(self) -> float:
        return max(0.0, self.ci_low)

    @property
    def ci_high_clamped(self) -> float:
        return min(1.0, self.ci_high)

    @property
    def clamped(self) -> bool:
        return self.ci_low < 0.0 or self.ci_high > 1.0


@dataclass(slots=True)
class DelayStats:
    """Per-interval, per-class network delay summary."""

    interval: int
    msg_class: MessageClass
    mean_s: float
    p95_s: float


def exchange_scores(classes: Sequence[int], created: Sequence[int], delivered: Sequence[int],
                    limits: Sequence[int], end_tick: int) -> array:
    """Score of each exchange, from its columns: 1 when the round trip met the
    limit, else 0; ``MISSING`` while undecided.

    ``classes`` holds class codes, ``limits`` the delay limit in ticks of
    each code, and ``delivered`` the response tick, ``MISSING`` when never
    answered.  The limit is inclusive.  An exchange never answered scores 0
    once its limit has run out by ``end_tick``, the end of the run; before
    that its outcome is unknowable.
    """
    return array("b", (
        (1 if done - start <= limits[code] else 0) if done != MISSING
        else (MISSING if start + limits[code] > end_tick else 0)
        for code, start, done in zip(classes, created, delivered)
    ))


def class_reliability_ci(per_node: Mapping[int, float]) -> tuple[float, float]:
    """Mean and 95% CI half-width of per-node reliabilities.

    Uses the sample (n-1) standard deviation; a single node yields a zero
    half-width by convention.
    """
    if not per_node:
        raise EmptyDistribution("no nodes with reliability samples")
    values = [per_node[node] for node in sorted(per_node)]
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, CI_FACTOR * math.sqrt(var) / math.sqrt(n)


def ddf(delays: Iterable[tuple[float, float]]) -> float:
    """Mean relative delay gap in percent over (d_it, d_comm) pairs.

    Both delays of a pair share one unit, ticks or seconds.
    """
    total = 0.0
    count = 0
    for d_it, d_comm in delays:
        if d_comm <= 0:
            # A zero network delay is impossible with positive serialization
            # time; such a pair indicates a bookkeeping bug upstream.
            continue
        total += (d_it - d_comm) / d_comm
        count += 1
    if count == 0:
        raise EmptyDistribution("no delay pairs with positive network delay")
    return 100.0 * total / count


def percentile_nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation); q in (0, 100]."""
    if not values:
        raise EmptyDistribution("no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _interval_runs(ticks, interval_ticks: int, what: str):
    """``(interval, lo, hi)`` for each run ``ticks[lo:hi]`` of rows in one interval.

    A row in an interval below one already read raises ``GridCoSimError``.
    Each run's end is bisected and its rows are checked by their least and
    greatest tick, with no Python step per row.
    """
    lo = 0
    while lo < len(ticks):
        interval = ticks[lo] // interval_ticks
        hi = bisect_left(ticks, (interval + 1) * interval_ticks, lo)
        run = ticks[lo:hi]
        if min(run) // interval_ticks != max(run) // interval_ticks:
            # The first row in an interval below that of a row before it.
            tick = next(tick for tick, top in zip(run[1:], accumulate(run, max))
                        if tick // interval_ticks < top // interval_ticks)
            raise GridCoSimError(f"{what} at tick {tick} after interval "
                                 f"{tick // interval_ticks} was reported")
        yield interval, lo, hi
        lo = hi


def reliability_series(exchanges, interval_ticks: int) -> list[IntervalMetrics]:
    """Class reliability per (creation interval, class) of scored exchanges.

    ``exchanges`` is an ``itfed.Exchanges``, in creation order: creation
    intervals never decrease along the rows, though ticks within one may (a
    slot creates its polls before its commands).  An exchange created in an
    interval already read raises ``GridCoSimError``, scored or not.  A
    node's reliability is the mean of its stored scores; undecided exchanges
    (``MISSING``) are left out.  Rows are ordered by interval, then class name.
    """
    series: list[IntervalMetrics] = []
    classes, nodes, scores = exchanges.classes, exchanges.nodes, exchanges.scores
    for interval, lo, hi in _interval_runs(exchanges.created, interval_ticks, "exchange created"):
        # Per class code, node to its score sum and count in this interval.
        totals: list[dict[int, int]] = [{} for _ in _CLASSES]
        counts: list[dict[int, int]] = [{} for _ in _CLASSES]
        for code, node, score in zip(classes[lo:hi], nodes[lo:hi], scores[lo:hi]):
            if score != MISSING:
                node_totals, node_counts = totals[code], counts[code]
                node_totals[node] = node_totals.get(node, 0) + score
                node_counts[node] = node_counts.get(node, 0) + 1
        for code in _CODES_BY_NAME:
            if counts[code]:
                mean, half = class_reliability_ci(
                    {node: totals[code][node] / n for node, n in counts[code].items()})
                series.append(IntervalMetrics(interval, _CLASSES[code], mean, half))
    return series


def delay_series(legs, interval_ticks: int) -> list[DelayStats]:
    """Network delay mean and p95 per (delivery interval, class).

    ``legs`` is an ``itfed.CommLegs``, whose comm delivery ticks never
    decrease; a leg delivered in an interval already read raises
    ``GridCoSimError``.  Rows are ordered by interval, then class name.
    """
    series: list[DelayStats] = []
    for interval, lo, hi in _interval_runs(legs.delivered, interval_ticks, "leg delivered"):
        values: list[list[float]] = [[] for _ in _CLASSES]
        for code, d_comm in zip(legs.classes[lo:hi], legs.d_comm[lo:hi]):
            values[code].append(d_comm / TICKS_PER_SECOND)
        for code in _CODES_BY_NAME:
            seconds = values[code]
            if seconds:
                series.append(DelayStats(interval, _CLASSES[code], sum(seconds) / len(seconds),
                                         percentile_nearest_rank(seconds, 95.0)))
    return series
