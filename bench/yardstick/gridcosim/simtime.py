"""Discrete simulation clock.

All event times in the simulator are integer counts of a fixed base unit
(10 microseconds).  Keeping time integral makes event ordering exact: adding
a slot duration any number of times never accumulates rounding error, which
floating-point seconds cannot guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

# Base unit is 1e-5 s.  Every event time, slot duration and latency is an
# exact multiple of this.
TICKS_PER_SECOND = 100_000

BASE_UNIT_S = 1.0 / TICKS_PER_SECOND


def ticks_from_seconds(seconds: float, *, key: str = "time") -> int:
    """Convert seconds to ticks, requiring an exact base-unit multiple.

    Raises ValueError when ``seconds`` is not representable on the tick
    grid (beyond float noise).
    """
    raw = seconds * TICKS_PER_SECOND
    ticks = round(raw)
    tol = max(1e-6, abs(raw) * 1e-9)
    if abs(raw - ticks) > tol:
        raise ValueError(f"{key}={seconds!r} is not a multiple of {BASE_UNIT_S} s")
    return ticks


def seconds_from_ticks(ticks: int) -> float:
    return ticks / TICKS_PER_SECOND


@dataclass(frozen=True, slots=True)
class SimTime:
    """A point on the simulation clock, in ticks of the base unit."""

    ticks: int

    def __post_init__(self):
        if self.ticks < 0:
            raise ValueError("time cannot be negative")

    @classmethod
    def from_seconds(cls, seconds: float) -> "SimTime":
        return cls(ticks_from_seconds(seconds))

    @property
    def seconds(self) -> float:
        return self.ticks / TICKS_PER_SECOND

    def __add__(self, other: "SimTime | int") -> "SimTime":
        delta = other.ticks if isinstance(other, SimTime) else other
        return SimTime(self.ticks + delta)

    def __sub__(self, other: "SimTime | int") -> "SimTime":
        delta = other.ticks if isinstance(other, SimTime) else other
        return SimTime(self.ticks - delta)

    def advanced(self, step_ticks: int, count: int) -> "SimTime":
        """Advance by ``count`` steps of ``step_ticks`` in one exact jump."""
        return SimTime(self.ticks + step_ticks * count)

    def slot_index(self, tau_ticks: int) -> int:
        """Index of the half-open slot [s*tau, (s+1)*tau) containing this time."""
        return self.ticks // tau_ticks
