"""Metric primitives: counters, gauges, histograms.

None of these hold locks; the :class:`~repro.core.obs.recorder.Recorder`
serialises access.
"""

from __future__ import annotations

from typing import Dict, Optional


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0):
        self.value = value

    def add(self, n: float = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time level (queue depth, pool size)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = value

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A count/sum/min/max summary of observed values.

    Deliberately bucket-free: the study's distributions are inspected in
    the Chrome trace, not the metrics file, so the flat export only needs
    enough to compute means and spot outliers.
    """

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

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
