"""Metric oracles: expected values computed independently and frozen.

The confidence-interval oracle is the statistics module (sample standard
deviation); the implementation under test does its own arithmetic.
Reliability is checked end to end from round trips: each exchange is scored
by ``exchange_scores`` and the node value is read back from
``reliability_series``.  The column-reading reports are also compared with
the list-based ones they replaced, kept in ``reference_reports``.
"""

import math
import statistics

import pytest
from hypothesis import given, strategies as st

import gridcosim
from gridcosim.errors import EmptyDistribution, GridCoSimError
from gridcosim.messages import _CLASSES, MISSING, MessageClass, MessageKind
from gridcosim.metrics import (
    class_reliability_ci,
    ddf,
    delay_series,
    exchange_scores,
    percentile_nearest_rank,
    reliability_series,
)
from gridcosim.simtime import TICKS_PER_SECOND
from tests import records, reference_reports
from tests.records import Exchange

# Frozen from the independent oracle below (statistics.stdev, n-1 form).
CI_CASE_VALUES = [1, 1, 0.5, 0.5]
CI_CASE_MEAN = 0.75
CI_CASE_HALF_WIDTH = 0.2829016319029166

REL = 1e-9
LIMIT_30_S = 30 * TICKS_PER_SECOND
INTERVAL_TICKS = 25 * TICKS_PER_SECOND
# Late enough that every exchange created at tick 0 has its outcome decided.
END_TICK = 100 * TICKS_PER_SECOND
TAU_TICKS = TICKS_PER_SECOND // 100


def _score(d_it: int | None, created_tick: int) -> int | None:
    """``exchange_scores`` of one exchange under a 30 s limit, None while undecided."""
    delivered = MISSING if d_it is None else created_tick + d_it
    [score] = exchange_scores([0], [created_tick], [delivered], [LIMIT_30_S], END_TICK)
    return None if score == MISSING else score


def _exchange(d_it_s: float | None, node: int = 1, created_tick: int = 0) -> Exchange:
    """A scored monitoring exchange under a 30 s limit; ``d_it_s`` None when never answered."""
    d_it = None if d_it_s is None else round(d_it_s * TICKS_PER_SECOND)
    delivered = None if d_it is None else created_tick + d_it
    return Exchange(0, MessageClass.MONITORING, node, created_tick, delivered,
                    score=_score(d_it, created_tick))


def _node_reliability(exchanges: list[Exchange]) -> float | None:
    """Reliability of the one node ``exchanges`` belong to; None when none is scored."""
    series = reliability_series(records.exchanges(exchanges), INTERVAL_TICKS)
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
    assert _score(LIMIT_30_S, 0) == 1
    assert _score(LIMIT_30_S + 1, 0) == 0
    # An unanswered exchange is decided once its limit has run out exactly.
    assert _score(None, END_TICK - LIMIT_30_S) == 0
    assert _score(None, END_TICK - LIMIT_30_S + 1) is None
    # A response that arrived in time is scored even close to the end.
    assert _score(5, END_TICK - 1) == 1


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
    legs = [(MessageClass.MONITORING, MessageKind.RESPONSE, 0, 7, start - 1)]
    legs += [(MessageClass.CONTROL, MessageKind.CONTROL_ACK, 0, s * TICKS_PER_SECOND, start + s)
             for s in (1, 2, 3)]
    first, stats = delay_series(records.comm_legs(legs), INTERVAL_TICKS)
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
    [snapshot] = reliability_series(records.exchanges(exchanges), INTERVAL_TICKS)
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
    assert reliability_series(records.exchanges([]), INTERVAL_TICKS) == []
    undecided = Exchange(0, MessageClass.CONTROL, 5, 0)
    assert reliability_series(records.exchanges([undecided]), INTERVAL_TICKS) == []


# Short intervals, so that a few hundred records span many of them; ticks
# are drawn on a coarse grid, so that records often fall on an interval end.
SMALL_INTERVAL = 4 * TAU_TICKS
LIMITS = [3 * TAU_TICKS, 5 * TAU_TICKS]


def _half_taus(most: int):
    return st.integers(0, most).map(lambda k: k * TAU_TICKS // 2)


@st.composite
def scored_exchanges(draw):
    """Exchanges with creation intervals that never decrease, scored at a random run end.

    Creation ticks may step back within an interval, as when a slot creates
    its polls before its commands.
    """
    drawn = draw(st.lists(st.tuples(
        _half_taus(4),                                    # ticks since the previous creation
        _half_taus(4),                                    # ticks created before that, in its interval
        st.sampled_from(range(len(_CLASSES))),            # class code
        st.integers(1, 6),                                # node
        st.none() | _half_taus(16),                       # round trip, None if never answered
    ), max_size=150))
    created, tick = [], 0
    for step, back, _code, _node, _wait in drawn:
        tick += step
        created.append(tick - min(back, tick % SMALL_INTERVAL))
    end_tick = tick + draw(_half_taus(12))
    codes = [code for _step, _back, code, _node, _wait in drawn]
    delivered = [MISSING if wait is None or start + wait > end_tick else start + wait
                 for start, (_step, _back, _code, _node, wait) in zip(created, drawn)]
    scores = exchange_scores(codes, created, delivered, LIMITS, end_tick)
    rows = [Exchange(2 * i, _CLASSES[code], node, start, None if done == MISSING else done,
                     score=None if score == MISSING else score)
            for i, ((_step, _back, code, node, _wait), start, done, score)
            in enumerate(zip(drawn, created, delivered, scores))]
    return rows, end_tick


@given(scored_exchanges())
def test_scores_and_reliability_match_the_list_reference(case):
    rows, end_tick = case
    for row in rows:
        d_it = None if row.delivered_tick is None else row.delivered_tick - row.created_tick
        limit = LIMITS[_CLASSES.index(row.msg_class)]
        assert row.score == reference_reports.exchange_score(d_it, row.created_tick, limit, end_tick)
    assert (reliability_series(records.exchanges(rows), SMALL_INTERVAL)
            == reference_reports.reliability_series(rows, SMALL_INTERVAL))


@st.composite
def delivered_legs(draw):
    """Legs in delivery order: delivery ticks never decrease, often tie and
    often fall on an interval end."""
    drawn = draw(st.lists(st.tuples(
        st.integers(0, 12).map(lambda k: k * TAU_TICKS // 4),  # ticks since the previous delivery
        st.integers(1, 2 * TAU_TICKS),                         # d_it minus d_comm
        st.sampled_from(list(MessageKind)),
        st.integers(1, 50 * TAU_TICKS),                        # d_comm
    ), max_size=200))
    legs, tick = [], 0
    for step, lag, kind, d_comm in drawn:
        tick += step
        msg_class = MessageClass.CONTROL if kind.value.startswith("control") else MessageClass.MONITORING
        legs.append((msg_class, kind, d_comm + lag, d_comm, tick))
    return legs


@given(delivered_legs(), st.sampled_from([1, 2, 4, 7]))
def test_delay_series_matches_the_list_reference(legs, slots_per_interval):
    interval_ticks = slots_per_interval * TAU_TICKS
    assert (delay_series(records.comm_legs(legs), interval_ticks)
            == reference_reports.delay_series(legs, interval_ticks))


def test_leg_for_an_emitted_interval_raises():
    mon, resp = MessageClass.MONITORING, MessageKind.RESPONSE
    # Interval 0 is reported once a leg of interval 1 is read: a later leg
    # delivered in interval 0 raises, even one within 2 tau of that leg.
    legs = [(mon, resp, 9, 5, INTERVAL_TICKS - 1),
            (mon, resp, 9, 5, INTERVAL_TICKS + 2 * TAU_TICKS),
            (mon, resp, 9, 5, INTERVAL_TICKS - 1)]
    assert len(delay_series(records.comm_legs(legs[:2]), INTERVAL_TICKS)) == 2
    one_tick_in = [(mon, resp, 9, 5, 0), (mon, resp, 9, 5, INTERVAL_TICKS + 1),
                   (mon, resp, 9, 5, INTERVAL_TICKS - 1)]
    for case in (legs, one_tick_in):
        with pytest.raises(GridCoSimError, match=f"tick {INTERVAL_TICKS - 1} after interval 0"):
            delay_series(records.comm_legs(case), INTERVAL_TICKS)


def test_exchange_for_an_emitted_interval_raises():
    undecided = Exchange(2, MessageClass.CONTROL, 5, INTERVAL_TICKS - 1)
    for late in (_exchange(1.0), undecided):
        rows = [_exchange(1.0, created_tick=INTERVAL_TICKS), late]
        with pytest.raises(GridCoSimError, match="after interval 0"):
            reliability_series(records.exchanges(rows), INTERVAL_TICKS)


def test_package_exports_resolve():
    for name in gridcosim.__all__:
        assert getattr(gridcosim, name) is not None, name
    assert "node_reliability" not in gridcosim.__all__
