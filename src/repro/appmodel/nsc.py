"""Android Network Security Configuration (NSC) files.

NSC XML is the declarative pinning mechanism prior work (Possemato et al.,
Oltrogge et al.) measured; the paper's static pipeline extracts the config
referenced from the AndroidManifest and parses its ``<pin-set>`` entries
(Section 4.1.1).  This module models the config, serializes it to the real
XML shape, and parses it back.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import AppModelError


@dataclass
class NSCPin:
    """One ``<pin digest="SHA-256">base64</pin>`` entry."""

    digest: str  # "SHA-256" or "SHA-1"
    value: str  # base64 SPKI digest

    def as_pin_string(self) -> str:
        """Convert to the ``shaN/<b64>`` form used by validation policies."""
        algorithm = "sha256" if self.digest.upper() == "SHA-256" else "sha1"
        return f"{algorithm}/{self.value}"


@dataclass
class NSCDomainConfig:
    """One ``<domain-config>`` element."""

    domain: str
    include_subdomains: bool = True
    pins: List[NSCPin] = field(default_factory=list)
    pin_set_expiration: Optional[str] = None  # "YYYY-MM-DD"
    override_pins: bool = False
    cleartext_permitted: Optional[bool] = None


@dataclass
class NSCConfig:
    """A whole ``network_security_config.xml``."""

    domain_configs: List[NSCDomainConfig] = field(default_factory=list)
    base_cleartext_permitted: Optional[bool] = None

    def has_pins(self) -> bool:
        """Does any domain-config carry a pin-set?  (What prior work counts.)"""
        return any(dc.pins for dc in self.domain_configs)

    # -- XML ------------------------------------------------------------------

    def to_xml(self) -> str:
        root = ET.Element("network-security-config")
        if self.base_cleartext_permitted is not None:
            base = ET.SubElement(root, "base-config")
            base.set(
                "cleartextTrafficPermitted",
                "true" if self.base_cleartext_permitted else "false",
            )
        for dc in self.domain_configs:
            elem = ET.SubElement(root, "domain-config")
            if dc.cleartext_permitted is not None:
                elem.set(
                    "cleartextTrafficPermitted",
                    "true" if dc.cleartext_permitted else "false",
                )
            domain = ET.SubElement(elem, "domain")
            domain.set(
                "includeSubdomains", "true" if dc.include_subdomains else "false"
            )
            domain.text = dc.domain
            if dc.pins:
                pin_set = ET.SubElement(elem, "pin-set")
                if dc.pin_set_expiration:
                    pin_set.set("expiration", dc.pin_set_expiration)
                for pin in dc.pins:
                    p = ET.SubElement(pin_set, "pin")
                    p.set("digest", pin.digest)
                    p.text = pin.value
            if dc.override_pins:
                trust = ET.SubElement(elem, "trust-anchors")
                certs = ET.SubElement(trust, "certificates")
                certs.set("src", "user")
                certs.set("overridePins", "true")
        return ET.tostring(root, encoding="unicode")

    @classmethod
    def from_xml(cls, text: str) -> "NSCConfig":
        """Parse a config; raises :class:`AppModelError` on malformed XML."""
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise AppModelError(f"malformed NSC XML: {exc}") from exc
        if root.tag != "network-security-config":
            raise AppModelError(f"not an NSC document: root <{root.tag}>")

        config = cls()
        base = root.find("base-config")
        if base is not None and "cleartextTrafficPermitted" in base.attrib:
            config.base_cleartext_permitted = (
                base.get("cleartextTrafficPermitted") == "true"
            )
        for elem in root.findall("domain-config"):
            domain_elem = elem.find("domain")
            if domain_elem is None or not (domain_elem.text or "").strip():
                continue
            dc = NSCDomainConfig(
                domain=(domain_elem.text or "").strip(),
                include_subdomains=domain_elem.get("includeSubdomains", "false")
                == "true",
            )
            if "cleartextTrafficPermitted" in elem.attrib:
                dc.cleartext_permitted = (
                    elem.get("cleartextTrafficPermitted") == "true"
                )
            pin_set = elem.find("pin-set")
            if pin_set is not None:
                dc.pin_set_expiration = pin_set.get("expiration")
                for p in pin_set.findall("pin"):
                    dc.pins.append(
                        NSCPin(
                            digest=p.get("digest", "SHA-256"),
                            value=(p.text or "").strip(),
                        )
                    )
            trust = elem.find("trust-anchors")
            if trust is not None:
                for certs in trust.findall("certificates"):
                    if certs.get("overridePins") == "true":
                        dc.override_pins = True
            config.domain_configs.append(dc)
        return config
