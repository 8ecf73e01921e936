"""Pinning-prevalence aggregation (Tables 2 and 3).

Table 3 crosses detection technique × dataset × platform; Table 2 puts
our numbers next to prior work's NSC-only and dynamic-only techniques.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.dynamic.pipeline import DynamicAppResult
from repro.core.static.report import StaticAppReport
from repro.reporting.tables import NO_DATA, Table, percent


@dataclass(frozen=True)
class PrevalenceCell:
    """One Table 3 cell: count and rate."""

    count: int
    total: int

    @property
    def rate(self) -> float:
        """Lenient rate (0.0 for an empty dataset); :meth:`render` is
        what tells an empty dataset from a measured 0 %."""
        return self.count / self.total if self.total else 0.0

    def render(self) -> str:
        """``"12.34% (5)"`` — or :data:`NO_DATA` for an empty dataset,
        which must never read as a measured 0 %."""
        if self.total == 0:
            return NO_DATA
        return f"{percent(self.rate)} ({self.count})"


def dataset_prevalence(
    static_reports: Sequence[StaticAppReport],
    dynamic_results: Sequence[DynamicAppResult],
) -> Dict[str, PrevalenceCell]:
    """The three Table 3 cells for one dataset."""
    total = len(static_reports)
    return {
        "dynamic": PrevalenceCell(
            sum(1 for r in dynamic_results if r.pins()), total
        ),
        "embedded": PrevalenceCell(
            sum(1 for r in static_reports if r.embedded_material), total
        ),
        "nsc": PrevalenceCell(
            sum(1 for r in static_reports if r.nsc_pins), total
        ),
    }


def prevalence_table(
    cells: Dict[Tuple[str, str], Dict[str, PrevalenceCell]],
) -> Table:
    """Render Table 3 from per-dataset cells.

    Args:
        cells: (platform, dataset) → technique → cell.
    """
    table = Table(
        title="Table 3: Certificate pinning prevalence by method and dataset",
        headers=[
            "Dataset",
            "Platform",
            "Dynamic analysis",
            "Embedded Certificates",
            "Configuration Files*",
        ],
    )
    for dataset in ("common", "popular", "random"):
        for platform in ("android", "ios"):
            cell = cells.get((platform, dataset))
            if cell is None:
                continue
            nsc = cell["nsc"].render() if platform == "android" else "-"
            table.add_row(
                dataset.capitalize(),
                platform.capitalize() if platform == "ios" else "Android",
                cell["dynamic"].render(),
                cell["embedded"].render(),
                nsc,
            )
    return table


def prior_work_table(
    cells: Dict[Tuple[str, str], Dict[str, PrevalenceCell]],
) -> Table:
    """Table 2 analogue: prior techniques re-run on our datasets.

    Prior work's headline technique is NSC-based static analysis
    (Possemato et al., Oltrogge et al.); ours adds content scans and the
    differential dynamic method.  The ratio column quantifies the paper's
    "up to 4 times more pinning" claim.
    """
    table = Table(
        title="Table 2 (reprise): prior-work technique vs this work, same datasets",
        headers=[
            "Dataset",
            "Platform",
            "NSC static (prior work)",
            "Dynamic (this work)",
            "Ratio",
        ],
    )
    for dataset in ("common", "popular", "random"):
        for platform in ("android",):
            cell = cells.get((platform, dataset))
            if cell is None:
                continue
            nsc_rate = cell["nsc"].rate
            dyn_rate = cell["dynamic"].rate
            ratio = dyn_rate / nsc_rate if nsc_rate else float("inf")
            table.add_row(
                dataset.capitalize(),
                "Android",
                cell["nsc"].render(),
                cell["dynamic"].render(),
                f"{ratio:.1f}x",
            )
    return table
