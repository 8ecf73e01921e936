"""ASCII figure rendering.

The paper's figures are bar charts and heat maps; benchmarks print their
underlying data as tables, and :func:`stacked_bar` adds a quick terminal
visual for the examples.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def stacked_bar(
    label: str,
    segments: Sequence[Tuple[str, float]],
    width: int = 50,
) -> str:
    """One stacked bar (Figure 5 style): segments as fractions of total."""
    total = sum(value for _, value in segments)
    if total <= 0:
        return f"{label}  (empty)"
    glyphs = "█▓▒░"
    parts: List[str] = []
    legend: List[str] = []
    for index, (name, value) in enumerate(segments):
        glyph = glyphs[index % len(glyphs)]
        cells = round(width * value / total)
        parts.append(glyph * cells)
        legend.append(f"{glyph}={name}({value:g})")
    return f"{label}  {''.join(parts)}  {' '.join(legend)}"
