"""Connection-security analysis (Section 5.4, Table 8).

Per dataset and platform:

* **Overall** — fraction of apps with at least one TLS connection whose
  ClientHello advertises a bad ciphersuite (DES/3DES/RC4/EXPORT).
* **Pinning apps** — fraction of pinning apps with at least one *pinned*
  connection advertising a bad suite.

Both read the baseline (non-MITM) capture's facts rows: cipher
advertisement is a client property visible without interception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.dynamic.pipeline import DynamicAppResult
from repro.reporting.tables import Table, percent


@dataclass(frozen=True)
class CipherSecurityCell:
    """One Table 8 cell pair."""

    overall_rate: float
    pinning_rate: float
    total_apps: int
    pinning_apps: int


def analyze_ciphers(results: Sequence[DynamicAppResult]) -> CipherSecurityCell:
    """Compute the Table 8 cells for one dataset's results."""
    total = len(results)
    overall = 0
    pinning_apps = 0
    pinning_weak = 0
    for result in results:
        facts = result.direct_facts
        if any(f.weak_offer for f in facts):
            overall += 1
        pinned = result.pinned_destinations
        if not pinned:
            continue
        pinning_apps += 1
        if any(f.weak_offer for f in facts if f.sni in pinned):
            pinning_weak += 1
    return CipherSecurityCell(
        overall_rate=overall / total if total else 0.0,
        pinning_rate=pinning_weak / pinning_apps if pinning_apps else 0.0,
        total_apps=total,
        pinning_apps=pinning_apps,
    )


def cipher_table(
    cells: Dict[Tuple[str, str], CipherSecurityCell],
) -> Table:
    table = Table(
        title="Table 8: Weak ciphers in pinned vs all connections",
        headers=["Dataset", "Platform", "Overall", "Pinning apps"],
    )
    for dataset in ("common", "popular", "random"):
        for platform in ("android", "ios"):
            cell = cells.get((platform, dataset))
            if cell is None:
                continue
            # Distinguish "no pinning apps to measure" from a measured
            # 0 % — the lenient rate collapses both to 0.0.
            table.add_row(
                dataset.capitalize(),
                "Android" if platform == "android" else "iOS",
                percent(cell.overall_rate if cell.total_apps else None),
                percent(cell.pinning_rate if cell.pinning_apps else None),
            )
    return table
