"""Plain-text table rendering for benchmark output.

Every table/figure computation returns a :class:`Table` so the benchmark
harness can print the same rows the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: What a cell with no data renders as — visually distinct from a true
#: zero (``0.00%``), which is a measured value.
NO_DATA = "—"


@dataclass
class Table:
    """A titled table of string-able cells."""

    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    def column(self, header: str) -> List[object]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        """Fixed-width text rendering."""
        cells = [self.headers] + [[_fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(str(row[i])) for row in cells)
            for i in range(len(self.headers))
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append(
            "  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append(
                "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        for row in self.rows:
            writer.writerow([_fmt(c) for c in row])
        return buffer.getvalue()


def _fmt(cell: object) -> str:
    if cell is None:
        return NO_DATA
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def ratio(value: Optional[float], digits: int = 2) -> str:
    """Render a plain ratio (Jaccard overlap, rate) as a fixed-point string.

    Like :func:`percent`, ``None`` — the "no data" sentinel — renders as
    :data:`NO_DATA` so an undefined ratio can never masquerade as a
    measured ``0.00``.
    """
    if value is None:
        return NO_DATA
    return f"{value:.{digits}f}"


def percent(value: Optional[float], digits: int = 2) -> str:
    """Render a ratio as a percentage string.

    ``None`` — a ratio with nothing to measure — renders as
    :data:`NO_DATA`, so an empty denominator can never masquerade as a
    measured ``0.00%``.
    """
    if value is None:
        return NO_DATA
    return f"{value * 100:.{digits}f}%"
