"""Statistics helpers used by the analysis layer.

The paper uses a chi-square test of independence (p < 0.05) to compare PII
prevalence across pinned vs non-pinned traffic (Section 5.5) and Jaccard
indices to compare pinned-domain sets across platforms (Section 5.1).
The 2x2 chi-square test is computed in pure Python (Yates' correction and
the 1-dof survival function via ``math.erfc``); it matches
``scipy.stats.chi2_contingency``, which the tests use as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Set, TypeVar

T = TypeVar("T")


def jaccard_index(a: Set[T], b: Set[T]) -> float:
    """Jaccard similarity |a ∩ b| / |a ∪ b|; defined as 1.0 for two empty sets."""
    if not a and not b:
        return 1.0
    union = a | b
    return len(a & b) / len(union)


@dataclass(frozen=True)
class ChiSquareResult:
    """Outcome of a chi-square test of independence on a 2x2 table."""

    statistic: float
    p_value: float
    degrees_of_freedom: int

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def _chi2_sf_1df(x: float) -> float:
    """Survival function of chi-square with 1 dof = erfc(sqrt(x/2))."""
    return math.erfc(math.sqrt(x / 2.0))


def chi_square_independence(
    table: Sequence[Sequence[float]], correction: bool = True
) -> ChiSquareResult:
    """Chi-square test of independence on a 2x2 contingency table.

    Args:
        table: ``[[a, b], [c, d]]`` observed counts.
        correction: apply Yates' continuity correction (scipy's default).

    Returns:
        A :class:`ChiSquareResult`.

    Raises:
        ValueError: if the table is not 2x2 or a margin is zero.
    """
    if len(table) != 2 or any(len(row) != 2 for row in table):
        raise ValueError("chi_square_independence expects a 2x2 table")

    # A zero margin makes an expected count zero; callers match on this
    # message.
    a, b = table[0]
    c, d = table[1]
    row_totals = (a + b, c + d)
    col_totals = (a + c, b + d)
    grand = a + b + c + d
    if grand <= 0 or 0 in row_totals or 0 in col_totals:
        raise ValueError("contingency table has a zero margin")

    stat = 0.0
    observed = ((a, b), (c, d))
    for i in range(2):
        for j in range(2):
            expected = row_totals[i] * col_totals[j] / grand
            diff = abs(observed[i][j] - expected)
            if correction:
                diff = max(0.0, diff - 0.5)
            stat += diff * diff / expected
    return ChiSquareResult(stat, _chi2_sf_1df(stat), 1)


def mean(values: Sequence[float]) -> float:
    """Lenient arithmetic mean; 0.0 for an empty sequence.

    Do not render it: an empty sequence has no mean, and printing one as
    ``0.00`` fabricates data.
    """
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)

