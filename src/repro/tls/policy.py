"""Client-side certificate validation policies.

Apps express their trust decisions — including pinning — as a validation
policy.  A policy inspects the served chain for a hostname and either
returns (accept) or raises :class:`ChainValidationError` with a reason.

The catalogue covers the implementation techniques the paper detects:

* :class:`SystemValidationPolicy` — default root-store validation.
* :class:`SpkiPinPolicy` — OkHttp ``CertificatePinner`` / TrustKit style:
  require one of a set of ``shaN/<b64>`` SPKI pins in the chain.
* :class:`PinnedCertificatePolicy` — whole-certificate pinning against
  embedded certificate fingerprints.
* :class:`NSCPinPolicy` — Android Network Security Configuration pin-sets
  with per-domain scoping, expiration and ``overridePins``.
* :class:`TrustAllPolicy` — validation disabled; what a successful Frida
  hook turns any policy into.
* :class:`CompositePolicy` — per-domain routing (apps pin selectively,
  Section 5.2: "if an app uses pinning, it does so selectively").

Proper implementations pin *in addition to* standard validation — the paper
found no app that skipped normal checks (Section 5.3.4) — so pin policies
here wrap a base policy by default.  Tests can still construct the unsafe
variant explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Sequence

from repro.errors import ChainValidationError
from repro.pki.chain import CertificateChain
from repro.pki.store import RootStore
from repro.pki.validation import ValidationContext, validate_chain
from repro.util.simtime import Timestamp


class ValidationPolicy:
    """Base class: decide whether to trust a served chain."""

    #: Which TLS library implements this policy; drives Frida hookability
    #: (Section 4.3).  Overridden per instance via the constructor.
    library: str = "platform-default"

    def evaluate(
        self, chain: CertificateChain, hostname: str, at_time: Timestamp
    ) -> None:
        """Accept (return) or reject (raise) the chain.

        Raises:
            ChainValidationError: on rejection.
        """
        raise NotImplementedError

    def accepts(
        self, chain: CertificateChain, hostname: str, at_time: Timestamp
    ) -> bool:
        try:
            self.evaluate(chain, hostname, at_time)
        except ChainValidationError:
            return False
        return True

    def is_pinning(self) -> bool:
        """Ground truth: does this policy constitute certificate pinning?"""
        return False


class SystemValidationPolicy(ValidationPolicy):
    """Default validation against the platform root store."""

    def __init__(
        self,
        store: RootStore,
        library: str = "platform-default",
        check_hostname: bool = True,
    ):
        self.store = store
        self.library = library
        self.check_hostname = check_hostname

    def evaluate(self, chain, hostname, at_time):
        ctx = ValidationContext(
            store=self.store,
            hostname=hostname,
            at_time=at_time,
            check_hostname=self.check_hostname,
        )
        validate_chain(chain, ctx)


class TrustAllPolicy(ValidationPolicy):
    """Validation disabled (hooked/bypassed client)."""

    def __init__(self, library: str = "hooked"):
        self.library = library

    def evaluate(self, chain, hostname, at_time):
        return None


class SpkiPinPolicy(ValidationPolicy):
    """SPKI pinning: the chain must contain one of a set of key pins.

    Args:
        pins: ``shaN/<base64>`` pin strings.
        base: standard validation to run first (None for the unsafe
            pin-only variant).
        library: implementing library, e.g. ``"okhttp"`` or ``"trustkit"``.
    """

    def __init__(
        self,
        pins: Iterable[str],
        base: Optional[ValidationPolicy] = None,
        library: str = "okhttp",
    ):
        self.pins: FrozenSet[str] = frozenset(pins)
        self.base = base
        self.library = library
        if not self.pins:
            raise ValueError("SpkiPinPolicy requires at least one pin")

    def is_pinning(self) -> bool:
        return True

    def evaluate(self, chain, hostname, at_time):
        if self.base is not None:
            self.base.evaluate(chain, hostname, at_time)
        if not any(chain.contains_spki(pin) for pin in self.pins):
            raise ChainValidationError(
                f"no pinned SPKI present for {hostname!r}", reason="pin_mismatch"
            )


class PinnedCertificatePolicy(ValidationPolicy):
    """Whole-certificate pinning against SHA-256 fingerprints."""

    def __init__(
        self,
        fingerprints: Iterable[str],
        base: Optional[ValidationPolicy] = None,
        library: str = "custom",
    ):
        self.fingerprints: FrozenSet[str] = frozenset(fingerprints)
        self.base = base
        self.library = library
        if not self.fingerprints:
            raise ValueError("PinnedCertificatePolicy requires a fingerprint")

    def is_pinning(self) -> bool:
        return True

    def evaluate(self, chain, hostname, at_time):
        if self.base is not None:
            self.base.evaluate(chain, hostname, at_time)
        served = {cert.fingerprint_sha256() for cert in chain}
        if not served & self.fingerprints:
            raise ChainValidationError(
                f"no pinned certificate present for {hostname!r}",
                reason="pin_mismatch",
            )


@dataclass(frozen=True)
class NSCDomainRule:
    """One ``<domain-config>`` worth of pinning state.

    Attributes:
        domain: the configured domain.
        include_subdomains: NSC ``includeSubdomains`` attribute.
        pins: SPKI pin strings from the ``<pin-set>``.
        pin_set_expiration: after this time the pin-set is ignored (NSC
            semantics: expired pin-sets fall back to default validation).
        override_pins: the misconfiguration Possemato et al. flagged — a
            debug/trust-anchor ``overridePins="true"`` that disables the
            pin check entirely.
    """

    domain: str
    include_subdomains: bool = True
    pins: FrozenSet[str] = frozenset()
    pin_set_expiration: Optional[Timestamp] = None
    override_pins: bool = False

    def matches(self, hostname: str) -> bool:
        hostname = hostname.lower()
        domain = self.domain.lower()
        if hostname == domain:
            return True
        return self.include_subdomains and hostname.endswith("." + domain)

    def active_at(self, at_time: Timestamp) -> bool:
        if self.override_pins or not self.pins:
            return False
        if self.pin_set_expiration is not None:
            return at_time.unix <= self.pin_set_expiration.unix
        return True


class NSCPinPolicy(ValidationPolicy):
    """Android Network Security Configuration semantics.

    Standard validation always runs; the pin check applies only to
    hostnames matched by a rule whose pin-set is active.
    """

    def __init__(
        self,
        rules: Sequence[NSCDomainRule],
        base: ValidationPolicy,
        library: str = "android-nsc",
    ):
        self.rules = list(rules)
        self.base = base
        self.library = library

    def is_pinning(self) -> bool:
        return any(rule.pins and not rule.override_pins for rule in self.rules)

    def rule_for(self, hostname: str) -> Optional[NSCDomainRule]:
        """Most specific matching rule (longest domain wins)."""
        matching = [r for r in self.rules if r.matches(hostname)]
        if not matching:
            return None
        return max(matching, key=lambda r: len(r.domain))

    def evaluate(self, chain, hostname, at_time):
        self.base.evaluate(chain, hostname, at_time)
        rule = self.rule_for(hostname)
        if rule is None or not rule.active_at(at_time):
            return
        if not any(chain.contains_spki(pin) for pin in rule.pins):
            raise ChainValidationError(
                f"NSC pin-set mismatch for {hostname!r}", reason="pin_mismatch"
            )


class CompositePolicy(ValidationPolicy):
    """Route validation per destination: pin some domains, not others.

    Args:
        default: policy for unmatched hostnames.
        overrides: mapping of domain → policy.  A hostname matches an
            override for the domain itself or any subdomain.
    """

    def __init__(
        self,
        default: ValidationPolicy,
        overrides: Optional[Dict[str, ValidationPolicy]] = None,
    ):
        self.default = default
        self.overrides: Dict[str, ValidationPolicy] = dict(overrides or {})

    def policy_for(self, hostname: str) -> ValidationPolicy:
        hostname = hostname.lower()
        best: Optional[str] = None
        for domain in self.overrides:
            d = domain.lower()
            if hostname == d or hostname.endswith("." + d):
                if best is None or len(d) > len(best):
                    best = d
        return self.overrides[best] if best is not None else self.default

    def is_pinning(self) -> bool:
        return any(policy.is_pinning() for policy in self.overrides.values())

    def evaluate(self, chain, hostname, at_time):
        self.policy_for(hostname).evaluate(chain, hostname, at_time)
