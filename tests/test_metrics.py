"""Metric oracles: expected values computed independently and frozen.

The confidence-interval oracle is the statistics module (sample standard
deviation); the implementation under test does its own arithmetic.
"""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

from gridcosim.errors import EmptyDistribution
from gridcosim.messages import ExchangeRecord, MessageClass, MessageKind, SimMessage
from gridcosim.metrics import (
    class_reliability_ci,
    ddf,
    ddf_report,
    delay_stats,
    interval_metrics,
    node_reliability,
    percentile_nearest_rank,
)
from gridcosim.simtime import TICKS_PER_SECOND

# Frozen from the independent oracle below (statistics.stdev, n-1 form).
CI_CASE_VALUES = [1, 1, 0.5, 0.5]
CI_CASE_MEAN = 0.75
CI_CASE_HALF_WIDTH = 0.2829016319029166

REL = 1e-9


def _exchange(d_it_s: float | None, node: int = 0, cls: MessageClass = MessageClass.MONITORING,
              created_s: float = 0.0) -> ExchangeRecord:
    created = round(created_s * TICKS_PER_SECOND)
    request = SimMessage(1, cls, MessageKind.REQUEST, 100, node, 64, created)
    record = ExchangeRecord(request=request, node=node, msg_class=cls)
    if d_it_s is not None:
        delivered = created + round(d_it_s * TICKS_PER_SECOND)
        record.response = SimMessage(2, cls, MessageKind.RESPONSE, node, 100, 500, created,
                                     delivered_it_tick=delivered, correlation_id=1)
    return record


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
    assert node_reliability(records, limit_s=30.0) == pytest.approx(0.8, rel=REL)
    assert node_reliability([_exchange(0.5)] * 3, limit_s=30.0) == 1.0


def test_node_reliability_unanswered_counts_zero():
    records = [_exchange(31.0)] * 3 + [_exchange(None)]
    assert node_reliability(records, limit_s=30.0) == 0.0


def test_node_reliability_empty_is_absent():
    assert node_reliability([], limit_s=30.0) is None


def test_node_reliability_limit_inclusive():
    assert node_reliability([_exchange(30.0)], limit_s=30.0) == 1.0


def test_ddf_constant_gap():
    assert ddf([(2.5, 2.0)] * 5) == pytest.approx(25.0, rel=REL)


def test_ddf_zero_when_delays_match():
    assert ddf([(2.0, 2.0), (0.7, 0.7)]) == 0.0


def test_ddf_mean_of_gaps():
    assert ddf([(1.1, 1.0), (1.3, 1.0)]) == pytest.approx(20.0, rel=REL)


def test_ddf_excludes_zero_network_delay():
    report = ddf_report([(1.0, 0.0), (2.5, 2.0)], tau_s=0.01)
    assert report.excluded_zero_comm == 1
    assert report.message_count == 1
    assert report.ddf_percent == pytest.approx(25.0, rel=REL)
    with pytest.raises(EmptyDistribution):
        ddf([(1.0, 0.0)])


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile_nearest_rank(values, 95.0) == 95
    assert percentile_nearest_rank([3.0], 95.0) == 3.0
    assert percentile_nearest_rank([1.0, 2.0], 50.0) == 1.0


def test_delay_stats():
    stats = delay_stats(4, MessageClass.CONTROL, [1.0, 2.0, 3.0])
    assert stats.mean_s == pytest.approx(2.0)
    assert stats.p95_s == 3.0
    assert stats.count == 3


def test_interval_metrics_aggregates_nodes():
    by_node = {
        1: [_exchange(1.0, node=1), _exchange(1.0, node=1)],
        2: [_exchange(2.0, node=2)],
        3: [_exchange(50.0, node=3), _exchange(None, node=3)],
        4: [],
    }
    snapshot = interval_metrics(0, MessageClass.MONITORING, by_node, limit_s=30.0)
    assert snapshot.per_node == {1: 1.0, 2: 1.0, 3: 0.0}
    assert snapshot.sample_count == 5
    oracle_mean = statistics.fmean([1.0, 1.0, 0.0])
    oracle_half = 1.96 * statistics.stdev([1.0, 1.0, 0.0]) / math.sqrt(3)
    assert snapshot.mean == pytest.approx(oracle_mean, rel=REL)
    assert snapshot.ci_half_width == pytest.approx(oracle_half, rel=REL)
    # Display clamping keeps raw values available.
    assert snapshot.ci_high > 1.0 or snapshot.ci_low < 0.0
    assert 0.0 <= snapshot.ci_low_clamped <= snapshot.ci_high_clamped <= 1.0
    assert snapshot.clamped


def test_interval_metrics_empty_is_none():
    assert interval_metrics(0, MessageClass.CONTROL, {}, limit_s=10.0) is None
    assert interval_metrics(0, MessageClass.CONTROL, {5: []}, limit_s=10.0) is None
