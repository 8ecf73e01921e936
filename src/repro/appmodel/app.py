"""The cross-platform app model.

:class:`MobileApp` is the simulation's ground-truth record of one app on
one platform: identity, store metadata, embedded SDKs, pinning specs and
network behaviour.  Android/iOS package materialisation lives in
:mod:`repro.appmodel.android` and :mod:`repro.appmodel.ios`; this module
owns what both share, most importantly the **runtime validation policy**
construction that dynamic analysis exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.appmodel.behavior import NetworkBehavior
from repro.appmodel.pinning import PinForm, PinMechanism, PinningSpec
from repro.errors import AppModelError
from repro.pki.store import RootStore
from repro.tls.ciphers import (
    CipherSuite,
    MODERN_SUITES,
    TLS12_STRONG_SUITES,
    TLS13_SUITES,
    WEAK_SUITES,
)
from repro.tls.records import TLSVersion

if TYPE_CHECKING:
    from repro.tls.policy import CompositePolicy, ValidationPolicy

#: Client suite orders per platform.  The iOS 13-era system stack still
#: advertised 3DES CBC suites in its ClientHello, which is why Table 8 sees
#: weak ciphers in >90 % of iOS apps overall; Android 11's default Conscrypt
#: config did not.
IOS_SYSTEM_SUITES: Tuple[CipherSuite, ...] = MODERN_SUITES + (WEAK_SUITES[0],)
ANDROID_SYSTEM_SUITES: Tuple[CipherSuite, ...] = MODERN_SUITES


@dataclass
class MobileApp:
    """One app on one platform.

    Attributes:
        app_id: package name (Android) or bundle id (iOS).
        name: display name.
        platform: ``"android"`` or ``"ios"``.
        category: store category label.
        owner: publishing organisation (party attribution anchor).
        store_rank: popularity rank within its store listing.
        sdk_names: embedded third-party SDKs (catalog names).
        pinning_specs: ground-truth pinning decisions (first- and
            third-party).
        behavior: cold-start network behaviour.
        associated_domains: iOS associated domains (entitlements).
        uses_nsc: Android — ships an NSC file (possibly without pins).
        obfuscated_code: code-level obfuscation; hides string pins from
            the static scanner.
        weak_system_stack: the app's default TLS configuration advertises
            legacy suites (Table 8's "Overall" column counts these).
        cross_platform_id: shared identity linking Android and iOS builds
            of the same product (the Common dataset key).
    """

    app_id: str
    name: str
    platform: str
    category: str
    owner: str
    store_rank: int = 0
    sdk_names: List[str] = field(default_factory=list)
    pinning_specs: List[PinningSpec] = field(default_factory=list)
    behavior: NetworkBehavior = field(default_factory=NetworkBehavior)
    associated_domains: Tuple[str, ...] = ()
    uses_nsc: bool = False
    obfuscated_code: bool = False
    weak_system_stack: bool = False
    cross_platform_id: str = ""

    def __post_init__(self):
        if self.platform not in ("android", "ios"):
            raise AppModelError(f"unknown platform: {self.platform!r}")

    # -- ground truth --------------------------------------------------------

    def active_specs(self) -> List[PinningSpec]:
        """Specs enforced at runtime."""
        return [s for s in self.pinning_specs if s.active_at_runtime()]

    def static_visible_specs(self) -> List[PinningSpec]:
        """Specs whose material is findable in the package."""
        return [s for s in self.pinning_specs if s.visible_to_static()]

    def runtime_pinned_domains(self) -> Set[str]:
        """Ground truth: domains pinned by an active spec."""
        return {
            d.lower() for spec in self.active_specs() for d in spec.domains
        }

    def pins_at_runtime(self) -> bool:
        return bool(self.runtime_pinned_domains())

    def pins_domain(self, hostname: str) -> bool:
        hostname = hostname.lower()
        for domain in self.runtime_pinned_domains():
            if hostname == domain or hostname.endswith("." + domain):
                return True
        return False

    def embeds_pin_material(self) -> bool:
        """Ground truth for the content scans: does the package contain
        certificate/pin material findable outside configuration files?

        NSC-mechanism specs are excluded — their material lives only in
        the NSC XML, which Table 3 counts under "Configuration Files".
        """
        from repro.appmodel.pinning import PinMechanism

        content_specs = [
            s
            for s in self.static_visible_specs()
            if s.mechanism is not PinMechanism.NSC
        ]
        return bool(content_specs) or bool(self.embedded_material_sources())

    def embedded_material_sources(self) -> List[str]:
        """SDKs that embed certificate material without pinning."""
        from repro.appmodel.sdk import sdk_by_name

        sources = []
        for name in self.sdk_names:
            sdk = sdk_by_name(name)
            if sdk is not None and sdk.embeds_certificates and not sdk.pins:
                sources.append(name)
        return sources

    # -- runtime TLS configuration --------------------------------------------

    def system_suites(self) -> Tuple[CipherSuite, ...]:
        """The app's default ClientHello suite list.

        The iOS 13-era system stack still advertised 3DES; apps that
        configure a modern suite list (``weak_system_stack=False``) avoid
        it on either platform.
        """
        if not self.weak_system_stack:
            return MODERN_SUITES
        return (
            IOS_SYSTEM_SUITES
            if self.platform == "ios"
            else MODERN_SUITES + (WEAK_SUITES[0],)
        )

    def suites_for_destination(self, hostname: str) -> Tuple[CipherSuite, ...]:
        """ClientHello suites for one destination.

        Destinations flagged ``weak_ciphers`` in the behaviour use a stack
        advertising legacy suites; pinned destinations without the flag
        ride a dedicated, modern-only stack — producing Table 8's drop in
        weak ciphers for pinned connections.
        """
        usage = self.behavior.usage_for(hostname)
        if usage is not None and usage.weak_ciphers:
            return MODERN_SUITES + (WEAK_SUITES[0], WEAK_SUITES[2])
        if usage is not None and self.pins_domain(hostname):
            return TLS13_SUITES + TLS12_STRONG_SUITES[:3]
        return self.system_suites()

    def offered_versions(self) -> Tuple[TLSVersion, ...]:
        return (TLSVersion.TLS12, TLSVersion.TLS13)

    def runtime_policy(self, device_store: RootStore) -> CompositePolicy:
        """Assemble the validation policy the app enforces on this device.

        The default is platform root-store validation.  Each active pinning
        spec contributes per-domain overrides; NSC specs are merged into a
        single NSC policy (one config file governs the process).
        """
        # Only a computed app run asks for its policy; a run served from
        # the result store never loads the policy module.
        from repro.tls.policy import (
            CompositePolicy,
            NSCDomainRule,
            NSCPinPolicy,
            PinnedCertificatePolicy,
            SpkiPinPolicy,
            SystemValidationPolicy,
        )

        library = "conscrypt" if self.platform == "android" else "securetransport"
        base = SystemValidationPolicy(device_store, library=library)
        # The Stone et al. misbehaviour: chain validation runs but the
        # hostname check is skipped (common in hand-rolled TrustManagers).
        lax_base = SystemValidationPolicy(
            device_store, library=library, check_hostname=False
        )
        overrides: Dict[str, ValidationPolicy] = {}
        nsc_rules = []

        for spec in self.active_specs():
            if spec.mechanism is PinMechanism.NSC:

                for domain in spec.domains:
                    resolved = spec.resolved.get(domain)
                    if resolved is None:
                        raise AppModelError(
                            f"spec for {domain!r} was never resolved"
                        )
                    pins = frozenset(resolved.pin_strings)
                    nsc_rules.append(
                        NSCDomainRule(domain=domain, pins=pins)
                    )
                continue

            for domain in spec.domains:
                resolved = spec.resolved.get(domain)
                if resolved is None:
                    raise AppModelError(f"spec for {domain!r} was never resolved")
                # Custom-PKI backends cannot pass system-store validation;
                # their apps check the pin alone (the pinned material *is*
                # the trust anchor).
                if not resolved.default_pki:
                    domain_base = None
                elif spec.skips_hostname_check:
                    domain_base = lax_base
                else:
                    domain_base = base
                if spec.form is PinForm.RAW_CERTIFICATE:
                    overrides[domain] = PinnedCertificatePolicy(
                        resolved.fingerprints,
                        base=domain_base,
                        library=spec.mechanism.library,
                    )
                else:
                    overrides[domain] = SpkiPinPolicy(
                        resolved.pin_strings,
                        base=domain_base,
                        library=spec.mechanism.library,
                    )

        if nsc_rules:
            nsc_policy = NSCPinPolicy(nsc_rules, base=base)
            for rule in nsc_rules:
                overrides[rule.domain] = nsc_policy

        return CompositePolicy(default=base, overrides=overrides)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MobileApp({self.app_id!r}, {self.platform}, {self.category!r}, "
            f"pins={self.pins_at_runtime()})"
        )
