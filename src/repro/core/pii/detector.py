"""PII detection in decrypted flows.

The analyst controls the test device and therefore knows its identifiers;
detection is a search for those known values in decrypted payloads —
ReCon-style, as in the studies the paper builds on ([45, 46]).  The PII
set is the paper's: IMEI, advertisement ID, WiFi MAC, user email, state,
city and latitude/longitude.

The pipelines scan each flow once, as its :class:`FlowFacts` row is built
(:meth:`PIIDetector.capture_facts`); Table 9 counts the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.device.identifiers import DeviceIdentifiers, PII_TYPES
from repro.netsim.flow import FlowFacts, FlowRecord, flow_facts


@dataclass(frozen=True)
class PIIHit:
    """One PII value found in one flow."""

    pii_type: str
    destination: str
    field_key: str


class PIIDetector:
    """Searches decrypted flows for a device's known identifiers."""

    def __init__(self, identifiers: DeviceIdentifiers):
        self.identifiers = identifiers
        # Every type, latitude and longitude included, is matched on its
        # own: a field hits a type when it contains that type's known value.
        self._values: Dict[str, str] = identifiers.as_dict()

    def scan_flow(self, flow: FlowRecord) -> List[PIIHit]:
        """All PII occurrences in one decrypted flow.

        Raises:
            AnalysisError: if the flow was never decrypted (analysis code
                must only look at plaintext it legitimately has).
        """
        hits: List[PIIHit] = []
        for payload in flow.decrypted_payloads():
            for key, value in payload.fields:
                for pii_type, known in self._values.items():
                    if known and known in value:
                        hits.append(
                            PIIHit(
                                pii_type=pii_type,
                                destination=flow.sni,
                                field_key=key,
                            )
                        )
        return hits

    def flow_pii_types(self, flow: FlowRecord) -> Set[str]:
        """The distinct PII types present in one flow."""
        return {hit.pii_type for hit in self.scan_flow(flow)}

    def capture_facts(self, flows: Iterable[FlowRecord]) -> Tuple[FlowFacts, ...]:
        """One facts row per flow; only decrypted flows are scanned."""
        return flow_facts(flows, lambda flow: frozenset(self.flow_pii_types(flow)))

    def prevalence(self, flows: Sequence[FlowRecord]) -> Dict[str, float]:
        """Fraction of flows containing each PII type."""
        counts: Dict[str, int] = {t: 0 for t in PII_TYPES}
        total = 0
        for flow in flows:
            if not flow.plaintext_visible:
                continue
            total += 1
            for pii_type in self.flow_pii_types(flow):
                counts[pii_type] += 1
        if total == 0:
            return {t: 0.0 for t in PII_TYPES}
        return {t: counts[t] / total for t in PII_TYPES}
