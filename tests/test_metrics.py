"""Metric oracles: expected values computed independently and frozen.

The confidence-interval oracle is the statistics module (sample standard
deviation); the implementation under test does its own arithmetic.
Reliability is checked end to end from round trips: each exchange is scored
by ``exchange_score`` and the node value is read back from
``reliability_series``.
"""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

import gridcosim
from gridcosim.errors import EmptyDistribution
from gridcosim.itfed import Exchange
from gridcosim.messages import MessageClass, MessageKind
from gridcosim.metrics import (
    class_reliability_ci,
    ddf,
    delay_series,
    exchange_score,
    percentile_nearest_rank,
    reliability_series,
)
from gridcosim.simtime import TICKS_PER_SECOND

# Frozen from the independent oracle below (statistics.stdev, n-1 form).
CI_CASE_VALUES = [1, 1, 0.5, 0.5]
CI_CASE_MEAN = 0.75
CI_CASE_HALF_WIDTH = 0.2829016319029166

REL = 1e-9
LIMIT_30_S = 30 * TICKS_PER_SECOND
INTERVAL_TICKS = 25 * TICKS_PER_SECOND
# Late enough that every exchange created at tick 0 has its outcome decided.
END_TICK = 100 * TICKS_PER_SECOND


def _exchange(d_it_s: float | None, node: int = 1, created_tick: int = 0) -> Exchange:
    """A scored monitoring exchange under a 30 s limit; ``d_it_s`` None when never answered."""
    d_it = None if d_it_s is None else round(d_it_s * TICKS_PER_SECOND)
    delivered = None if d_it is None else created_tick + d_it
    return Exchange(0, MessageClass.MONITORING, node, created_tick, delivered,
                    score=exchange_score(d_it, created_tick, LIMIT_30_S, END_TICK))


def _node_reliability(exchanges: list[Exchange]) -> float | None:
    """Reliability of the one node ``exchanges`` belong to; None when none is scored."""
    series = reliability_series(exchanges, INTERVAL_TICKS)
    assert len(series) <= 1
    return series[0].mean if series else None


def test_ci_case_against_independent_oracle():
    oracle_mean = statistics.fmean(CI_CASE_VALUES)
    oracle_half = 1.96 * statistics.stdev(CI_CASE_VALUES) / math.sqrt(len(CI_CASE_VALUES))
    assert oracle_mean == CI_CASE_MEAN
    assert abs(oracle_half - CI_CASE_HALF_WIDTH) <= REL * CI_CASE_HALF_WIDTH

    mean, half = class_reliability_ci({i: v for i, v in enumerate(CI_CASE_VALUES)})
    assert abs(mean - CI_CASE_MEAN) <= REL * CI_CASE_MEAN
    assert abs(half - CI_CASE_HALF_WIDTH) <= REL * CI_CASE_HALF_WIDTH


def test_ci_zero_variance():
    assert class_reliability_ci({1: 1.0, 2: 1.0, 3: 1.0}) == (1.0, 0.0)


def test_ci_single_node_convention():
    assert class_reliability_ci({7: 0.6}) == (0.6, 0.0)


def test_ci_empty_raises():
    with pytest.raises(EmptyDistribution):
        class_reliability_ci({})


@given(st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=40))
def test_ci_permutation_invariant(values):
    forward = {i: v for i, v in enumerate(values)}
    backward = {len(values) - 1 - i: v for i, v in enumerate(values)}
    assert class_reliability_ci(forward) == pytest.approx(class_reliability_ci(backward))


def test_node_reliability_fractions():
    records = [_exchange(1.0)] * 8 + [_exchange(45.0)] * 2
    assert _node_reliability(records) == pytest.approx(0.8, rel=REL)
    assert _node_reliability([_exchange(0.5)] * 3) == 1.0


def test_node_reliability_unanswered_counts_zero():
    records = [_exchange(31.0)] * 3 + [_exchange(None)]
    assert [rec.score for rec in records] == [0, 0, 0, 0]
    assert _node_reliability(records) == 0.0


def test_node_reliability_empty_is_absent():
    assert _node_reliability([]) is None
    # Unanswered with its limit running past the end of the run: undecided.
    undecided = _exchange(None, created_tick=END_TICK - LIMIT_30_S + 1)
    assert undecided.score is None
    assert _node_reliability([undecided]) is None


def test_node_reliability_limit_inclusive():
    assert _node_reliability([_exchange(30.0)]) == 1.0
    assert _node_reliability([_exchange((LIMIT_30_S + 1) / TICKS_PER_SECOND)]) == 0.0
    assert exchange_score(LIMIT_30_S, 0, LIMIT_30_S, END_TICK) == 1
    assert exchange_score(LIMIT_30_S + 1, 0, LIMIT_30_S, END_TICK) == 0
    # An unanswered exchange is decided once its limit has run out exactly.
    assert exchange_score(None, END_TICK - LIMIT_30_S, LIMIT_30_S, END_TICK) == 0
    assert exchange_score(None, END_TICK - LIMIT_30_S + 1, LIMIT_30_S, END_TICK) is None
    # A response that arrived in time is scored even close to the end.
    assert exchange_score(5, END_TICK - 1, LIMIT_30_S, END_TICK) == 1


def test_ddf_constant_gap():
    assert ddf([(2.5, 2.0)] * 5) == pytest.approx(25.0, rel=REL)


def test_ddf_zero_when_delays_match():
    assert ddf([(2.0, 2.0), (0.7, 0.7)]) == 0.0


def test_ddf_mean_of_gaps():
    assert ddf([(1.1, 1.0), (1.3, 1.0)]) == pytest.approx(20.0, rel=REL)


def test_ddf_excludes_zero_network_delay():
    assert ddf([(1.0, 0.0), (2.5, 2.0)]) == pytest.approx(25.0, rel=REL)
    assert ddf([(100_000, 0), (250_000, 200_000)]) == pytest.approx(25.0, rel=REL)
    with pytest.raises(EmptyDistribution):
        ddf([(1.0, 0.0)])


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile_nearest_rank(values, 95.0) == 95
    assert percentile_nearest_rank([3.0], 95.0) == 3.0
    assert percentile_nearest_rank([1.0, 2.0], 50.0) == 1.0


def test_delay_stats():
    start = 4 * INTERVAL_TICKS
    legs = [(MessageClass.CONTROL, MessageKind.CONTROL_ACK, 0, s * TICKS_PER_SECOND, start + s)
            for s in (1, 2, 3)]
    legs.append((MessageClass.MONITORING, MessageKind.RESPONSE, 0, 7, start - 1))
    first, stats = delay_series(legs, INTERVAL_TICKS)
    assert (first.interval, first.msg_class, first.mean_s) == (3, MessageClass.MONITORING, 7e-5)
    assert (stats.interval, stats.msg_class) == (4, MessageClass.CONTROL)
    assert stats.mean_s == pytest.approx(2.0)
    assert stats.p95_s == 3.0


def test_interval_metrics_aggregates_nodes():
    exchanges = [
        _exchange(1.0, node=1), _exchange(1.0, node=1),
        _exchange(2.0, node=2),
        _exchange(50.0, node=3), _exchange(None, node=3),
        _exchange(None, node=4, created_tick=END_TICK - 1),  # undecided: no value
    ]
    [snapshot] = reliability_series(exchanges, INTERVAL_TICKS)
    assert (snapshot.interval, snapshot.msg_class) == (0, MessageClass.MONITORING)
    oracle_mean = statistics.fmean([1.0, 1.0, 0.0])
    oracle_half = 1.96 * statistics.stdev([1.0, 1.0, 0.0]) / math.sqrt(3)
    assert snapshot.mean == pytest.approx(oracle_mean, rel=REL)
    assert snapshot.ci_half_width == pytest.approx(oracle_half, rel=REL)
    # Display clamping keeps raw values available.
    assert snapshot.ci_high > 1.0 or snapshot.ci_low < 0.0
    assert 0.0 <= snapshot.ci_low_clamped <= snapshot.ci_high_clamped <= 1.0
    assert snapshot.clamped


def test_interval_metrics_empty_is_none():
    assert reliability_series([], INTERVAL_TICKS) == []
    undecided = Exchange(0, MessageClass.CONTROL, 5, 0)
    assert reliability_series([undecided], INTERVAL_TICKS) == []


def test_package_exports_resolve():
    for name in gridcosim.__all__:
        assert getattr(gridcosim, name) is not None, name
    assert "node_reliability" not in gridcosim.__all__
