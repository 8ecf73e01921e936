"""Order-independent metric primitives: counters, gauges, histograms.

Each metric type defines a commutative, associative ``merge`` so that
per-run telemetry can be folded into an aggregate recorder in any order
— the merged totals are identical for every order, keeping instrumented
sweeps as deterministic as the study results themselves:

* :class:`Counter` — merge adds.
* :class:`Gauge` — merge keeps the maximum (the only order-independent
  choice for a last-write-wins quantity coming from several runs).
* :class:`Histogram` — merge sums counts/totals and widens min/max.

None of these hold locks; the :class:`~repro.core.obs.recorder.Recorder`
serialises access.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0):
        self.value = value

    def add(self, n: float = 1) -> None:
        self.value += n

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """A point-in-time level (queue depth, pool size)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        self.value = max(self.value, other.value)


class Histogram:
    """A count/sum/min/max summary of observed values.

    Deliberately bucket-free: the study's distributions are inspected in
    the Chrome trace, not the metrics file, so the flat export only needs
    enough to compute means and spot outliers.
    """

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(
        self,
        count: int = 0,
        total: float = 0.0,
        minimum: Optional[float] = None,
        maximum: Optional[float] = None,
    ):
        self.count = count
        self.total = total
        self.minimum = minimum
        self.maximum = maximum

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    def merge(self, other: "Histogram") -> None:
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.minimum = (
            other.minimum
            if self.minimum is None
            else min(self.minimum, other.minimum)
        )
        self.maximum = (
            other.maximum
            if self.maximum is None
            else max(self.maximum, other.maximum)
        )

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.minimum is not None else 0.0,
            "max": self.maximum if self.maximum is not None else 0.0,
            "mean": self.mean,
        }

    def as_tuple(self) -> Tuple[int, float, Optional[float], Optional[float]]:
        """Compact form for snapshots."""
        return (self.count, self.total, self.minimum, self.maximum)

    @classmethod
    def from_tuple(cls, data) -> "Histogram":
        return cls(*data)
