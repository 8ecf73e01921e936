"""Resolving SPKI hashes through Certificate Transparency (Section 4.1.3).

Found pins are looked up in the CT index (crt.sh in the paper).  Public
(default-PKI) certificates resolve; custom-PKI and obfuscation artefacts
do not — in the study only ~50 % of unique pins resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.static.search import PinFinding
from repro.pki.certificate import Certificate
from repro.pki.ctlog import CTLog


@dataclass
class CTResolution:
    """Pin-to-certificate resolution results for one app."""

    resolved: Dict[str, List[Certificate]] = field(default_factory=dict)
    unresolved: List[str] = field(default_factory=list)

    def certificates(self) -> List[Certificate]:
        out: List[Certificate] = []
        seen = set()
        for certs in self.resolved.values():
            for cert in certs:
                fp = cert.fingerprint_sha256()
                if fp not in seen:
                    seen.add(fp)
                    out.append(cert)
        return out


def resolve_pins(pins: List[PinFinding], ctlog: CTLog) -> CTResolution:
    """Resolve each unique pin against the CT index."""
    resolution = CTResolution()
    # Sorted so the resolved-dict insertion order is stable across
    # processes (set iteration order varies under hash randomization,
    # and a warm run serves results another process stored).
    for pin in sorted({f.pin for f in pins}):
        hits = ctlog.search_pin(pin)
        if hits:
            resolution.resolved[pin] = hits
        else:
            resolution.unresolved.append(pin)
    resolution.unresolved.sort()
    return resolution
