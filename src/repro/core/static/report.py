"""Per-app static-analysis reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.core.static.ctlookup import CTResolution
from repro.core.static.nsc_analysis import NSCAnalysis
from repro.core.static.search import ScanResult


@dataclass
class StaticAppReport:
    """Everything static analysis learned about one app.

    The Table 3 predicates:

    * ``embedded_material`` — the "Embedded Certificates" column: any
      certificate or pin token found by the content scans.
    * ``nsc_pins`` — the "Configuration Files" column (prior-work method).
    """

    app_id: str
    platform: str
    scan: ScanResult
    nsc: NSCAnalysis
    ct: CTResolution
    decryption_tool: str = ""

    @property
    def embedded_material(self) -> bool:
        return self.scan.has_material()

    @property
    def nsc_pins(self) -> bool:
        return self.nsc.has_pins

    def all_pin_strings(self) -> Set[str]:
        return self.scan.unique_pins() | set(self.nsc.pins)

    def finding_paths(self) -> Set[str]:
        return self.scan.finding_paths()
