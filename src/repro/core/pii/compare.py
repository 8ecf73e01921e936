"""Pinned vs non-pinned PII prevalence comparison (Table 9).

Because non-pinned destinations outnumber pinned ones by orders of
magnitude, raw prevalences cannot be compared directly; the paper runs a
chi-square test of independence per PII type and highlights p < 0.05.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.device.identifiers import PII_TYPES
from repro.netsim.flow import FlowFacts
from repro.util.stats import ChiSquareResult, chi_square_independence


@dataclass
class PIITypeComparison:
    """One Table 9 row."""

    pii_type: str
    pinned_rate: float
    non_pinned_rate: float
    pinned_count: int
    non_pinned_count: int
    pinned_total: int
    non_pinned_total: int
    chi_square: Optional[ChiSquareResult] = None

    @property
    def significant(self) -> bool:
        return self.chi_square is not None and self.chi_square.significant()


@dataclass
class PIIComparison:
    """All Table 9 rows for one platform."""

    platform: str
    rows: List[PIITypeComparison] = field(default_factory=list)

    def row(self, pii_type: str) -> PIITypeComparison:
        for row in self.rows:
            if row.pii_type == pii_type:
                return row
        raise KeyError(pii_type)


def _type_counts(flows: Sequence[FlowFacts]) -> Counter:
    """Number of flows containing each PII type."""
    counts: Counter = Counter()
    for flow in flows:
        counts.update(flow.pii)
    return counts


def compare_pii_prevalence(
    platform: str,
    pinned_flows: Sequence[FlowFacts],
    non_pinned_flows: Sequence[FlowFacts],
) -> PIIComparison:
    """Build the pinned-vs-non-pinned comparison for one platform.

    Flows that were never decrypted are skipped (they carry no readable
    payload); the chi-square test is omitted for types absent from both
    sides (a zero margin makes it undefined).  Each row counts the flows
    whose PII types contain it.
    """
    pinned = [f for f in pinned_flows if f.plaintext]
    non_pinned = [f for f in non_pinned_flows if f.plaintext]
    pinned_counts = _type_counts(pinned)
    non_pinned_counts = _type_counts(non_pinned)

    comparison = PIIComparison(platform=platform)
    for pii_type in PII_TYPES:
        pinned_hits = pinned_counts[pii_type]
        non_pinned_hits = non_pinned_counts[pii_type]
        row = PIITypeComparison(
            pii_type=pii_type,
            pinned_rate=pinned_hits / len(pinned) if pinned else 0.0,
            non_pinned_rate=(
                non_pinned_hits / len(non_pinned) if non_pinned else 0.0
            ),
            pinned_count=pinned_hits,
            non_pinned_count=non_pinned_hits,
            pinned_total=len(pinned),
            non_pinned_total=len(non_pinned),
        )
        table = [
            [pinned_hits, len(pinned) - pinned_hits],
            [non_pinned_hits, len(non_pinned) - non_pinned_hits],
        ]
        if not pinned or not non_pinned or (pinned_hits + non_pinned_hits) == 0:
            row.chi_square = None  # zero margin: the test is undefined
        else:
            try:
                row.chi_square = chi_square_independence(table)
            except ValueError:
                row.chi_square = None
        comparison.rows.append(row)
    return comparison
