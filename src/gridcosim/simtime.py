"""Discrete simulation clock.

All event times in the simulator are integer counts of a fixed base unit
(10 microseconds).  Keeping time integral makes event ordering exact: adding
a slot duration any number of times never accumulates rounding error, which
floating-point seconds cannot guarantee.
"""

from __future__ import annotations

import math

# Base unit is 1e-5 s.  Every event time, slot duration and latency is an
# exact multiple of this.
TICKS_PER_SECOND = 100_000


def ticks_from_seconds(seconds: float, *, key: str = "time") -> int:
    """Convert seconds to ticks, requiring an exact base-unit multiple.

    Raises ValueError when ``seconds`` is not finite, not representable
    on the tick grid (beyond float noise), or nonzero but rounds to 0 ticks.
    """
    if not math.isfinite(seconds):
        raise ValueError(f"{key}={seconds!r} is not a finite number of seconds")
    raw = seconds * TICKS_PER_SECOND
    ticks = round(raw)
    tol = max(1e-6, abs(raw) * 1e-9)
    if abs(raw - ticks) > tol:
        raise ValueError(f"{key}={seconds!r} is not a multiple of {1 / TICKS_PER_SECOND} s")
    if ticks == 0 and seconds != 0:
        raise ValueError(f"{key}={seconds!r} is shorter than one tick ({1 / TICKS_PER_SECOND} s)")
    return ticks
