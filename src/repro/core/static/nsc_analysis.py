"""NSC-based static analysis — the prior-work technique (Section 4.1.1).

Extract the AndroidManifest, follow its ``networkSecurityConfig``
reference, parse the config and report whether it uses pin-sets.  Running
this alongside the fuller scans is what lets Table 3 compare "our
methods" against "the method used by prior work" on identical datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.appmodel.filetree import FileTree
from repro.errors import AppModelError


@dataclass
class NSCAnalysis:
    """Outcome of the NSC extraction for one Android package.

    Attributes:
        uses_nsc: an NSC file is referenced and present.
        has_pins: at least one ``<pin-set>`` is configured.
        pins: the pin strings found (``shaN/<b64>``).
        misconfigured_override: a ``<certificates overridePins="true">``
            entry neutralises the pins — the Possemato et al.
            misconfiguration.
        domains: pinned domains.
        overridden_domains: the subset of ``domains`` whose pin-set is
            neutralised by an override.
    """

    uses_nsc: bool = False
    has_pins: bool = False
    pins: List[str] = field(default_factory=list)
    misconfigured_override: bool = False
    domains: List[str] = field(default_factory=list)
    overridden_domains: List[str] = field(default_factory=list)


def analyze_nsc(tree: FileTree) -> NSCAnalysis:
    """Run the NSC technique over a decompiled Android package.

    Returns an all-False analysis when the manifest is missing or carries
    no NSC reference; raises nothing for malformed configs (they count as
    unused, as a real pipeline would skip them with a warning).
    """
    manifest_node = tree.get("AndroidManifest.xml")
    if manifest_node is None:
        return NSCAnalysis()
    # Parsing modules, loaded by the first analysis rather than by a run
    # that reads its static reports back from the result store.
    from repro.appmodel.manifest import AndroidManifest
    from repro.appmodel.nsc import NSCConfig

    try:
        manifest = AndroidManifest.from_xml(manifest_node.content)
    except AppModelError:
        return NSCAnalysis()

    resource_path = manifest.nsc_resource_path()
    if not resource_path:
        return NSCAnalysis()
    config_node = tree.get(resource_path)
    if config_node is None:
        return NSCAnalysis()
    try:
        config = NSCConfig.from_xml(config_node.content)
    except AppModelError:
        return NSCAnalysis()

    analysis = NSCAnalysis(uses_nsc=True)
    for dc in config.domain_configs:
        if dc.pins:
            analysis.has_pins = True
            analysis.domains.append(dc.domain)
            analysis.pins.extend(p.as_pin_string() for p in dc.pins)
            if dc.override_pins:
                analysis.misconfigured_override = True
                analysis.overridden_domains.append(dc.domain)
    return analysis
