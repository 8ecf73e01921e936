"""Table 9 assembly: PII in pinned vs non-pinned traffic (Section 5.5).

Pinned flows come from the circumvention re-runs (only decrypted pinned
traffic is readable); non-pinned flows come from the ordinary MITM runs,
where default validation accepted the proxy certificate.  Both sides are
read from the results' per-flow facts rows, whose PII types the pipelines
found when they built them.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.core.circumvent.pipeline import CircumventionResult
from repro.core.dynamic.pipeline import DynamicAppResult
from repro.core.pii.compare import PIIComparison, compare_pii_prevalence
from repro.netsim.flow import FlowFacts
from repro.reporting.tables import Table, percent

#: The PII types Table 9 reports per platform, in paper order.
TABLE9_TYPES = ("ad_id", "email", "state", "city", "latitude")


def collect_non_pinned_flows(
    results: Sequence[DynamicAppResult],
) -> List[FlowFacts]:
    """Decrypted MITM flows to destinations that were not pinned."""
    flows: List[FlowFacts] = []
    for result in results:
        pinned = result.pinned_destinations
        excluded = result.excluded_destinations
        for flow in result.mitm_facts:
            if not flow.plaintext or flow.os_initiated:
                continue
            if flow.sni in pinned or flow.sni in excluded:
                continue
            flows.append(flow)
    return flows


def collect_pinned_flows(
    circumventions: Sequence[CircumventionResult],
) -> List[FlowFacts]:
    """Decrypted flows to pinned destinations from the hooked re-runs."""
    flows: List[FlowFacts] = []
    for circ in circumventions:
        bypassed = circ.bypassed_destinations
        flows.extend(f for f in circ.hooked_facts if f.sni in bypassed and f.plaintext)
    return flows


def platform_pii_comparison(
    platform: str,
    dynamic_results: Sequence[DynamicAppResult],
    circumventions: Sequence[CircumventionResult],
) -> PIIComparison:
    """One platform's Table 9 rows, from its results' facts rows."""
    return compare_pii_prevalence(
        platform,
        collect_pinned_flows(circumventions),
        collect_non_pinned_flows(dynamic_results),
    )


def pii_table(comparisons: Iterable[PIIComparison]) -> Table:
    table = Table(
        title="Table 9: PII in pinned vs non-pinned TLS connections",
        headers=["Platform", "PII", "Pinned", "Non-Pinned", "Significant (p<0.05)"],
    )
    for comparison in comparisons:
        for pii_type in TABLE9_TYPES:
            row = comparison.row(pii_type)
            # A side with no decrypted flows has no rate — render the
            # no-data dash, not a fabricated 0.00%.
            table.add_row(
                comparison.platform.capitalize(),
                pii_type,
                percent(row.pinned_rate if row.pinned_total else None),
                percent(row.non_pinned_rate if row.non_pinned_total else None),
                "*" if row.significant else "",
            )
    return table
