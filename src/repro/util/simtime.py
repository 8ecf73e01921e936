"""Simulated time.

The study ran over 2021; certificate validity, expiry checks and capture
timestamps all need a consistent notion of "now" that does not depend on the
wall clock.  :class:`SimClock` provides a monotonically advancing simulated
clock anchored at the study epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

SECONDS_PER_DAY = 86_400
SECONDS_PER_YEAR = 365 * SECONDS_PER_DAY

# 2021-05-01T00:00:00Z — midpoint of the paper's Common/Popular crawls.
STUDY_EPOCH = 1_619_827_200


@dataclass(frozen=True, order=True)
class Timestamp:
    """A point in simulated time, stored as unix seconds."""

    unix: int

    def plus_days(self, days: float) -> "Timestamp":
        return Timestamp(self.unix + int(days * SECONDS_PER_DAY))

    def plus_years(self, years: float) -> "Timestamp":
        return Timestamp(self.unix + int(years * SECONDS_PER_YEAR))

    def plus_seconds(self, seconds: float) -> "Timestamp":
        return Timestamp(self.unix + int(seconds))

    def days_until(self, other: "Timestamp") -> float:
        return (other.unix - self.unix) / SECONDS_PER_DAY

    def isoformat(self) -> str:
        """Render as an ISO-8601 UTC string (no external deps)."""
        import datetime

        dt = datetime.datetime.fromtimestamp(self.unix, tz=datetime.timezone.utc)
        return dt.strftime("%Y-%m-%dT%H:%M:%SZ")

    def __str__(self) -> str:  # pragma: no cover - display only
        return self.isoformat()

    def __reduce__(self):
        return _shared_timestamp, (self.unix,)


@lru_cache(maxsize=1 << 15)
def _shared_timestamp(unix: int) -> Timestamp:
    """Unpickle a timestamp as one shared instance per value.

    Captures decoded from the result store repeat a few thousand start
    times many times over.  The cache is bounded so a long-lived process
    does not keep every timestamp it ever decoded.
    """
    return Timestamp(unix)


STUDY_START = Timestamp(STUDY_EPOCH)


class SimClock:
    """A monotonically advancing simulated clock.

    Components that need the current time receive a clock rather than calling
    into the OS; tests advance it explicitly.
    """

    def __init__(self, start: Timestamp = STUDY_START):
        self._now = start

    @property
    def now(self) -> Timestamp:
        return self._now

    def advance(self, seconds: float) -> Timestamp:
        """Move the clock forward; negative deltas are rejected."""
        if seconds < 0:
            raise ValueError("simulated time cannot move backwards")
        self._now = self._now.plus_seconds(seconds)
        return self._now

    def ticks(self, interval: float, count: int) -> Iterator[Timestamp]:
        """Yield ``count`` timestamps spaced ``interval`` seconds apart,
        advancing the clock as it goes."""
        for _ in range(count):
            yield self._now
            self.advance(interval)
