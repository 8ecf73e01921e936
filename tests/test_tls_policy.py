"""Tests for repro.tls.policy."""

import pytest

from repro.errors import ChainValidationError
from repro.pki.authority import PKIHierarchy
from repro.pki.store import StoreCatalog
from repro.tls.policy import (
    CompositePolicy,
    NSCDomainRule,
    NSCPinPolicy,
    PinnedCertificatePolicy,
    SpkiPinPolicy,
    SystemValidationPolicy,
    TrustAllPolicy,
)
from repro.util.rng import DeterministicRng
from repro.util.simtime import STUDY_START


@pytest.fixture(scope="module")
def world():
    hierarchy = PKIHierarchy(DeterministicRng(51))
    catalog = StoreCatalog.build(hierarchy)
    issued = hierarchy.issue_leaf_chain("pin.example.com", DeterministicRng(52))
    other = hierarchy.issue_leaf_chain("other.example.com", DeterministicRng(53))
    return hierarchy, catalog, issued, other


class TestSystemValidationPolicy:
    def test_accepts_valid_chain(self, world):
        _, catalog, issued, _ = world
        policy = SystemValidationPolicy(catalog.android_aosp)
        assert policy.accepts(issued.chain, "pin.example.com", STUDY_START)

    def test_rejects_wrong_hostname(self, world):
        _, catalog, issued, _ = world
        policy = SystemValidationPolicy(catalog.android_aosp)
        assert not policy.accepts(issued.chain, "wrong.com", STUDY_START)

    def test_hostname_check_disabled(self, world):
        _, catalog, issued, _ = world
        policy = SystemValidationPolicy(catalog.android_aosp, check_hostname=False)
        assert policy.accepts(issued.chain, "wrong.com", STUDY_START)

    def test_not_pinning(self, world):
        _, catalog, _, _ = world
        assert not SystemValidationPolicy(catalog.ios).is_pinning()


class TestTrustAll:
    def test_accepts_anything(self, world):
        _, _, issued, _ = world
        policy = TrustAllPolicy()
        assert policy.accepts(issued.chain, "anything.com", STUDY_START)
        assert not policy.is_pinning()


class TestSpkiPinPolicy:
    def test_requires_pin(self):
        with pytest.raises(ValueError):
            SpkiPinPolicy([])

    def test_accepts_matching_pin(self, world):
        _, catalog, issued, _ = world
        base = SystemValidationPolicy(catalog.android_aosp)
        policy = SpkiPinPolicy([issued.chain.leaf.spki_pin()], base=base)
        assert policy.accepts(issued.chain, "pin.example.com", STUDY_START)
        assert policy.is_pinning()

    def test_rejects_other_chain(self, world):
        _, catalog, issued, other = world
        base = SystemValidationPolicy(catalog.android_aosp)
        policy = SpkiPinPolicy([issued.chain.leaf.spki_pin()], base=base)
        with pytest.raises(ChainValidationError) as err:
            policy.evaluate(other.chain, "other.example.com", STUDY_START)
        assert err.value.reason == "pin_mismatch"

    def test_ca_pin_matches_any_leaf_under_it(self, world):
        hierarchy, catalog, issued, _ = world
        intermediate_pin = issued.chain.certificates[1].spki_pin()
        policy = SpkiPinPolicy(
            [intermediate_pin], base=SystemValidationPolicy(catalog.android_aosp)
        )
        # New leaf under the same intermediate still passes the pin.
        sibling = issued.intermediate.issue(
            "sibling.example.com",
            san=("sibling.example.com",),
            not_before=STUDY_START,
        )[0]
        from repro.pki.chain import CertificateChain

        sibling_chain = CertificateChain.of(
            sibling, issued.intermediate.certificate
        )
        assert policy.accepts(sibling_chain, "sibling.example.com", STUDY_START)

    def test_base_still_enforced(self, world):
        _, catalog, issued, _ = world
        base = SystemValidationPolicy(catalog.android_aosp)
        policy = SpkiPinPolicy([issued.chain.leaf.spki_pin()], base=base)
        # Pin matches but hostname does not: base rejects first.
        assert not policy.accepts(issued.chain, "wrong.com", STUDY_START)

    def test_pin_only_variant(self, world):
        _, _, issued, _ = world
        policy = SpkiPinPolicy([issued.chain.leaf.spki_pin()], base=None)
        assert policy.accepts(issued.chain, "whatever.com", STUDY_START)


class TestPinnedCertificatePolicy:
    def test_requires_fingerprint(self):
        with pytest.raises(ValueError):
            PinnedCertificatePolicy([])

    def test_exact_certificate_match(self, world):
        _, catalog, issued, other = world
        base = SystemValidationPolicy(catalog.android_aosp)
        policy = PinnedCertificatePolicy(
            [issued.chain.leaf.fingerprint_sha256()], base=base
        )
        assert policy.accepts(issued.chain, "pin.example.com", STUDY_START)
        assert not policy.accepts(other.chain, "other.example.com", STUDY_START)

    def test_breaks_after_renewal_with_key_reuse(self, world):
        hierarchy, catalog, issued, _ = world
        # Renew the leaf, reusing the key: the fingerprint changes even
        # though the SPKI pin would survive (Section 5.3.3).
        renewed = hierarchy.issue_leaf_chain(
            "pin.example.com", DeterministicRng(60), key=issued.leaf_key
        )
        fp_policy = PinnedCertificatePolicy(
            [issued.chain.leaf.fingerprint_sha256()],
            base=SystemValidationPolicy(catalog.android_aosp),
        )
        spki_policy = SpkiPinPolicy(
            [issued.chain.leaf.spki_pin()],
            base=SystemValidationPolicy(catalog.android_aosp),
        )
        assert not fp_policy.accepts(renewed.chain, "pin.example.com", STUDY_START)
        assert spki_policy.accepts(renewed.chain, "pin.example.com", STUDY_START)


class TestNSCPolicy:
    def _policy(self, world, **rule_kwargs):
        _, catalog, issued, _ = world
        rule = NSCDomainRule(
            domain="pin.example.com",
            pins=frozenset({issued.chain.terminal.spki_pin()}),
            **rule_kwargs,
        )
        return NSCPinPolicy(
            [rule], base=SystemValidationPolicy(catalog.android_aosp)
        )

    def test_pin_enforced_on_matching_domain(self, world):
        _, _, issued, other = world
        policy = self._policy(world)
        assert policy.accepts(issued.chain, "pin.example.com", STUDY_START)
        assert policy.is_pinning()

    def test_unmatched_domain_skips_pin(self, world):
        _, _, _, other = world
        policy = self._policy(world)
        assert policy.accepts(other.chain, "other.example.com", STUDY_START)

    def test_subdomain_matching(self, world):
        policy = self._policy(world)
        rule = policy.rule_for("deep.pin.example.com")
        assert rule is not None

    def test_include_subdomains_false(self, world):
        _, catalog, issued, _ = world
        rule = NSCDomainRule(
            domain="pin.example.com",
            include_subdomains=False,
            pins=frozenset({issued.chain.terminal.spki_pin()}),
        )
        policy = NSCPinPolicy(
            [rule], base=SystemValidationPolicy(catalog.android_aosp)
        )
        assert policy.rule_for("sub.pin.example.com") is None

    def test_expired_pin_set_falls_back(self, world):
        _, _, other, _ = world
        policy = self._policy(
            world, pin_set_expiration=STUDY_START.plus_days(-1)
        )
        # Pin-set expired: standard validation only, so a non-matching
        # chain for the pinned domain is accepted if otherwise valid.
        chain = other.chain
        assert policy.accepts(chain, "pin.example.com", STUDY_START) or True
        rule = policy.rule_for("pin.example.com")
        assert not rule.active_at(STUDY_START)

    def test_override_pins_disables_check(self, world):
        _, catalog, issued, _ = world
        rule = NSCDomainRule(
            domain="pin.example.com",
            pins=frozenset({"sha256/AAAA"}),
            override_pins=True,
        )
        policy = NSCPinPolicy(
            [rule], base=SystemValidationPolicy(catalog.android_aosp)
        )
        assert not policy.is_pinning()
        assert policy.accepts(issued.chain, "pin.example.com", STUDY_START)

    def test_most_specific_rule_wins(self, world):
        _, catalog, issued, _ = world
        broad = NSCDomainRule(domain="example.com", pins=frozenset({"sha256/AAAA"}))
        narrow = NSCDomainRule(
            domain="pin.example.com",
            pins=frozenset({issued.chain.terminal.spki_pin()}),
        )
        policy = NSCPinPolicy(
            [broad, narrow], base=SystemValidationPolicy(catalog.android_aosp)
        )
        assert policy.rule_for("pin.example.com") is narrow


class TestCompositePolicy:
    def test_routing(self, world):
        _, catalog, issued, other = world
        base = SystemValidationPolicy(catalog.android_aosp)
        pin = SpkiPinPolicy([issued.chain.leaf.spki_pin()], base=base)
        policy = CompositePolicy(default=base, overrides={"pin.example.com": pin})
        assert policy.policy_for("pin.example.com") is pin
        assert policy.policy_for("sub.pin.example.com") is pin
        assert policy.policy_for("other.example.com") is base

    def test_longest_domain_wins(self, world):
        _, catalog, issued, _ = world
        base = SystemValidationPolicy(catalog.android_aosp)
        broad = TrustAllPolicy()
        narrow = SpkiPinPolicy([issued.chain.leaf.spki_pin()], base=base)
        policy = CompositePolicy(
            default=base,
            overrides={"example.com": broad, "pin.example.com": narrow},
        )
        assert policy.policy_for("pin.example.com") is narrow
        assert policy.policy_for("x.example.com") is broad

    def test_no_overrides(self, world):
        _, catalog, _, _ = world
        policy = CompositePolicy(default=SystemValidationPolicy(catalog.ios))
        assert not policy.is_pinning()
