"""Reliability, confidence-interval and delay-mismatch metrics.

``exchange_score`` is the one place a round trip meets its class delay
limit: an exchange scores 1 when its application-side round trip, in ticks,
met the limit, 0 when it did not or was never answered, and None when the
run ended before that was decided.  Reliability of a node over an interval
is the mean of its stored scores.  Class reliability aggregates the
per-node values into a mean with a 95% confidence interval using the sample
standard deviation.  The delay-mismatch figure (in percent) is the mean
relative gap between application-side and network-side delays over
completed messages; it gauges how much error the timeslot synchronization
introduces.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import EmptyDistribution
from .messages import MessageClass, MessageKind
from .simtime import TICKS_PER_SECOND

#: Two-sided 95% normal quantile.
CI_FACTOR = 1.96


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


def exchange_score(d_it_ticks: int | None, created_tick: int, limit_ticks: int,
                   end_tick: int) -> int | None:
    """1 when the round trip met the limit, else 0; None while undecided.

    The limit is inclusive.  An exchange never answered (``d_it_ticks`` None)
    scores 0 once its limit has run out by ``end_tick``, the end of the run;
    before that its outcome is unknowable.
    """
    if d_it_ticks is not None:
        return 1 if d_it_ticks <= limit_ticks else 0
    return None if created_tick + limit_ticks > end_tick else 0


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


def reliability_series(exchanges: Iterable, interval_ticks: int) -> list[IntervalMetrics]:
    """Class reliability per (creation interval, class) of scored ``itfed.Exchange``s.

    A node's reliability is the mean of its stored scores; undecided
    exchanges (score None) are left out.  Rows are ordered by interval, then class name.
    """
    scores: dict[tuple[int, MessageClass], dict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
    for ex in exchanges:
        if ex.score is not None:
            scores[(ex.created_tick // interval_ticks, ex.msg_class)][ex.node].append(ex.score)
    series = []
    for (interval, msg_class), by_node in scores.items():
        mean, half = class_reliability_ci({node: sum(s) / len(s) for node, s in by_node.items()})
        series.append(IntervalMetrics(interval, msg_class, mean, half))
    series.sort(key=lambda m: (m.interval, m.msg_class.value))
    return series


def delay_series(
    legs: Iterable[tuple[MessageClass, MessageKind, int, int, int]], interval_ticks: int
) -> list[DelayStats]:
    """Network delay mean and p95 per (delivery interval, class).

    ``legs`` are (class, kind, d_it_ticks, d_comm_ticks, delivered_comm_tick)
    records; rows are ordered by interval, then class name.
    """
    by_key: dict[tuple[int, MessageClass], list[float]] = defaultdict(list)
    for msg_class, _kind, _d_it, d_comm, delivered_tick in legs:
        by_key[(delivered_tick // interval_ticks, msg_class)].append(d_comm / TICKS_PER_SECOND)
    series = [
        DelayStats(interval, msg_class, sum(values) / len(values), percentile_nearest_rank(values, 95.0))
        for (interval, msg_class), values in by_key.items()
    ]
    series.sort(key=lambda d: (d.interval, d.msg_class.value))
    return series
