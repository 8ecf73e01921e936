"""Canonical stdout rendering for study runs.

The byte layout of ``repro study`` stdout is a contract: CI diffs it
across warm and cold stores, detector flips, telemetry and audits, and
against a golden fixture.  This function is the *only* place the layout
is defined.

Everything here is deterministic given the results object.  Volatile
commentary (timings, store statistics, telemetry tables, audit reports)
goes to stderr in the CLI and never enters these strings.
"""

from __future__ import annotations

from typing import List

#: Every table/figure ``repro study`` prints, in print order.  Also the
#: ``repro table <name>`` choice list (plus ``figure4``, which renders
#: as a pair).
TABLE_CHOICES: List[str] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "table8", "table9", "figure2", "figure3", "figure5",
]


def render_study_stdout(results) -> str:
    """The full ``repro study`` stdout for a `StudyResults`, byte-exact."""
    parts: List[str] = []
    for name in TABLE_CHOICES:
        parts.append(getattr(results, name)().render())
        parts.append("\n\n")
    figure4a, figure4b = results.figure4()
    parts.append(figure4a.render())
    parts.append("\n\n")
    parts.append(figure4b.render())
    parts.append("\n\n")
    parts.append(
        f"circumvention android: {results.circumvention_rate('android'):.2%}\n"
    )
    parts.append(
        f"circumvention ios    : {results.circumvention_rate('ios'):.2%}\n"
    )
    return "".join(parts)

