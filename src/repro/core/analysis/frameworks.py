"""Third-party framework table (Section 5.3.5, Table 7)."""

from __future__ import annotations

from typing import Iterable

from repro.core.static.pipeline import StaticPipeline
from repro.core.static.report import StaticAppReport
from repro.reporting.tables import Table


def frameworks_table(
    android_reports: Iterable[StaticAppReport],
    ios_reports: Iterable[StaticAppReport],
    top_n: int = 5,
) -> Table:
    """Table 7: top frameworks embedding certificates per platform."""
    table = Table(
        title="Table 7: Top third-party frameworks embedding certificates",
        headers=["Platform", "Framework", "# apps"],
    )
    for platform, reports in (("Android", android_reports), ("iOS", ios_reports)):
        attribution = StaticPipeline.attribute(list(reports))
        for name, count in attribution.top(top_n):
            table.add_row(platform, name, count)
    return table
