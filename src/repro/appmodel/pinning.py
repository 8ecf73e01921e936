"""Pinning specifications — the corpus ground truth.

A :class:`PinningSpec` states that some code unit (the app itself or a
third-party SDK) pins a set of domains, by what mechanism, against which
certificate in the chain, and in what form.  Specs are *resolved* against
the live endpoint registry (turning "pin the root of api.foo.com's chain"
into concrete pin strings / PEM blobs), then drive both package
materialisation (what static analysis can find) and runtime policy
construction (what dynamic analysis observes).

Two flags decouple the static and dynamic views, reproducing the paper's
"potential vs actual pinning" gap (Section 4.2):

* ``dormant`` — the pin material ships in the package but the code path
  never runs (unused library, feature-flagged off).  Static finds it,
  dynamic does not.
* ``obfuscated`` — the pin material is encoded/obfuscated in the package.
  Dynamic observes the pinning, static misses it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import AppModelError
from repro.pki.certificate import Certificate
from repro.pki.chain import CertificateChain


class PinMechanism(enum.Enum):
    """How the pin is implemented; decides package artefacts, the runtime
    policy, and Frida hookability."""

    NSC = "nsc"  # Android Network Security Configuration
    OKHTTP = "okhttp"  # OkHttp CertificatePinner (Android)
    TRUSTKIT = "trustkit"  # TrustKit (iOS, also Android port)
    ALAMOFIRE = "alamofire"  # Alamofire ServerTrustManager (iOS)
    AFNETWORKING = "afnetworking"  # AFSecurityPolicy (iOS)
    URLSESSION = "urlsession"  # NSURLSession delegate checks (iOS)
    CONSCRYPT = "conscrypt"  # TrustManager override (Android)
    CUSTOM_TLS = "custom_tls"  # bespoke TLS stack; unhookable

    @property
    def library(self) -> str:
        """The TLS-library label used by the Frida hook catalog."""
        return self.value

    @property
    def platform(self) -> Optional[str]:
        """Platform restriction, or None for cross-platform mechanisms."""
        if self in (PinMechanism.NSC, PinMechanism.OKHTTP, PinMechanism.CONSCRYPT):
            return "android"
        if self in (
            PinMechanism.ALAMOFIRE,
            PinMechanism.AFNETWORKING,
            PinMechanism.URLSESSION,
        ):
            return "ios"
        return None


class PinScope(enum.Enum):
    """Which certificate in the chain is pinned (Section 5.3.2)."""

    LEAF = "leaf"
    INTERMEDIATE = "intermediate"
    ROOT = "root"

    @property
    def is_ca(self) -> bool:
        return self is not PinScope.LEAF


class PinForm(enum.Enum):
    """What exactly is embedded (Section 5.3.3)."""

    SPKI_SHA256 = "spki_sha256"
    SPKI_SHA1 = "spki_sha1"
    RAW_CERTIFICATE = "raw_certificate"


@dataclass(frozen=True)
class ResolvedPin:
    """Concrete pin material for one domain.

    Attributes:
        domain: the pinned destination.
        pinned_cert_cn: CN of the chain certificate the pin targets.
        pinned_cert_is_ca: whether that certificate is a CA.
        pin_strings: ``shaN/<b64>`` strings (SPKI forms).
        pem: PEM blob (raw-certificate form).
        fingerprints: SHA-256 certificate fingerprints (raw form's runtime
            check).
        default_pki: the pinned chain anchors in the public PKI.  When
            False (custom root, self-signed server) the app's runtime
            check is pin-only — system-store validation would reject its
            own backend ("Pinning for Customization", Section 2.1).
    """

    domain: str
    pinned_cert_cn: str
    pinned_cert_is_ca: bool
    pin_strings: Tuple[str, ...] = ()
    pem: str = ""
    fingerprints: Tuple[str, ...] = ()
    default_pki: bool = True


@dataclass
class PinningSpec:
    """One pinning decision by one code unit."""

    domains: Tuple[str, ...]
    mechanism: PinMechanism
    scope: PinScope = PinScope.ROOT
    form: PinForm = PinForm.SPKI_SHA256
    source: str = "first-party"  # "first-party" or an SDK name
    code_path: str = ""  # package path prefix that holds the material
    dormant: bool = False
    obfuscated: bool = False
    # The Stone et al. (ACSAC'17 "Spinner") misbehaviour: the pin check
    # runs but standard hostname verification does not, so any
    # certificate from the pinned CA — including one issued to an
    # attacker's domain — is accepted.
    skips_hostname_check: bool = False
    # The Possemato et al. NSC misconfiguration: a pin-set neutralised by
    # a ``<certificates overridePins="true">`` trust-anchor entry.
    nsc_override_pins: bool = False
    resolved: Dict[str, ResolvedPin] = field(default_factory=dict)

    def __post_init__(self):
        if not self.domains:
            raise AppModelError("a PinningSpec needs at least one domain")
        if self.form is PinForm.RAW_CERTIFICATE and self.mechanism is PinMechanism.NSC:
            # NSC pin-sets carry digests, not raw certificates.
            self.form = PinForm.SPKI_SHA256

    def pick_certificate(self, chain: CertificateChain) -> Certificate:
        """The chain certificate this spec's scope points at.

        Falls back gracefully for short chains (a self-signed single-cert
        chain has only one choice).
        """
        if self.scope is PinScope.LEAF or len(chain) == 1:
            return chain.leaf
        if self.scope is PinScope.INTERMEDIATE and len(chain) >= 2:
            return chain.certificates[1]
        return chain.terminal

    def resolve_domain(
        self, domain: str, chain: CertificateChain, default_pki: bool = True
    ) -> ResolvedPin:
        """Compute concrete pin material for a domain from its live chain.

        Args:
            domain: the destination to pin.
            chain: the chain the destination currently serves.
            default_pki: whether that chain anchors in the public PKI —
                False switches the runtime check to pin-only.
        """
        cert = self.pick_certificate(chain)
        if self.form is PinForm.RAW_CERTIFICATE:
            resolved = ResolvedPin(
                domain=domain,
                pinned_cert_cn=cert.common_name,
                pinned_cert_is_ca=cert.is_ca,
                pem=cert.to_pem(),
                fingerprints=(cert.fingerprint_sha256(),),
                pin_strings=(cert.spki_pin(),),
                default_pki=default_pki,
            )
        else:
            algorithm = "sha1" if self.form is PinForm.SPKI_SHA1 else "sha256"
            resolved = ResolvedPin(
                domain=domain,
                pinned_cert_cn=cert.common_name,
                pinned_cert_is_ca=cert.is_ca,
                pin_strings=(cert.spki_pin(algorithm=algorithm),),
                default_pki=default_pki,
            )
        self.resolved[domain] = resolved
        return resolved

    def is_resolved(self) -> bool:
        return set(self.resolved) == set(self.domains)

    def active_at_runtime(self) -> bool:
        return not self.dormant and not self.nsc_override_pins

    def visible_to_static(self) -> bool:
        return not self.obfuscated
