"""Reliability, confidence-interval and delay-mismatch metrics.

Reliability of a node over an interval is the fraction of its exchanges
whose application-side round trip, in ticks, met the class delay limit; an
exchange never answered counts as failed.  Class reliability aggregates the
per-node values into a mean with a 95% confidence interval using the sample
standard deviation.  The delay-mismatch figure (in percent) is the mean
relative gap between application-side and network-side delays over
completed messages; it gauges how much error the timeslot synchronization
introduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import EmptyDistribution
from .messages import MessageClass

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


def node_reliability(d_it_ticks: Sequence[int | None], limit_ticks: int) -> float | None:
    """Fraction of round trips within ``limit_ticks``; None when empty.

    An unanswered exchange (None) stays in the denominator and scores zero.
    """
    if not d_it_ticks:
        return None
    ok = sum(1 for d in d_it_ticks if d is not None and d <= limit_ticks)
    return ok / len(d_it_ticks)


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


def delay_stats(interval: int, msg_class: MessageClass, delays_s: Sequence[float]) -> DelayStats:
    return DelayStats(
        interval=interval,
        msg_class=msg_class,
        mean_s=sum(delays_s) / len(delays_s),
        p95_s=percentile_nearest_rank(delays_s, 95.0),
    )


def interval_metrics(
    interval: int,
    msg_class: MessageClass,
    d_it_by_node: Mapping[int, Sequence[int | None]],
    limit_ticks: int,
) -> IntervalMetrics | None:
    """Build the reliability snapshot for one (interval, class); None if empty."""
    per_node: dict[int, float] = {}
    for node, d_it_ticks in d_it_by_node.items():
        value = node_reliability(d_it_ticks, limit_ticks)
        if value is not None:
            per_node[node] = value
    if not per_node:
        return None
    mean, half = class_reliability_ci(per_node)
    return IntervalMetrics(interval=interval, msg_class=msg_class, mean=mean, ci_half_width=half)
