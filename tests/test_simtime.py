import pytest
from hypothesis import given, strategies as st

from gridcosim.simtime import TICKS_PER_SECOND, ticks_from_seconds


def test_base_unit():
    assert TICKS_PER_SECOND == 100_000
    assert 1 / TICKS_PER_SECOND == 1e-5


def test_ticks_from_seconds_exact_values():
    assert ticks_from_seconds(0.01) == 1_000
    assert ticks_from_seconds(1.0) == 100_000
    assert ticks_from_seconds(1600.0) == 160_000_000
    assert ticks_from_seconds(0.001) == 100
    # 1/30 Hz polling period in seconds
    assert ticks_from_seconds(30.0) == 3_000_000


def test_ticks_from_seconds_rejects_off_grid():
    with pytest.raises(ValueError):
        ticks_from_seconds(1e-6)
    with pytest.raises(ValueError):
        ticks_from_seconds(0.0150005001)


def test_ticks_from_seconds_rejects_positive_time_below_one_tick():
    for seconds in (1e-12, -1e-12):
        with pytest.raises(ValueError, match="shorter than one tick"):
            ticks_from_seconds(seconds, key="tau_s")
    assert ticks_from_seconds(0.0) == ticks_from_seconds(-0.0) == 0


@given(st.integers(min_value=0, max_value=10**12))
def test_seconds_ticks_round_trip(ticks):
    assert ticks_from_seconds(ticks / TICKS_PER_SECOND) == ticks
