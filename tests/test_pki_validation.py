"""Tests for repro.pki.validation."""

import pytest

from repro.errors import ChainValidationError
from repro.pki.authority import CertificateAuthority, PKIHierarchy
from repro.pki.chain import CertificateChain
from repro.pki.store import RootStore, StoreCatalog
from repro.pki.validation import (
    ValidationContext,
    chain_is_valid,
    classify_pki,
    hostname_matches,
    validate_chain,
)
from repro.util.rng import DeterministicRng
from repro.util.simtime import STUDY_START


@pytest.fixture(scope="module")
def world():
    hierarchy = PKIHierarchy(DeterministicRng(31))
    catalog = StoreCatalog.build(hierarchy)
    issued = hierarchy.issue_leaf_chain("api.valid.com", DeterministicRng(32))
    return hierarchy, catalog, issued


def ctx_for(store, hostname="api.valid.com", at=STUDY_START, **kwargs):
    return ValidationContext(
        store=store, hostname=hostname, at_time=at, **kwargs
    )


class TestHostnameMatching:
    def test_exact_match(self):
        assert hostname_matches("api.x.com", "api.x.com")

    def test_case_insensitive(self):
        assert hostname_matches("API.X.COM", "api.x.com")

    def test_trailing_dot(self):
        assert hostname_matches("api.x.com.", "api.x.com")

    def test_wildcard_single_label(self):
        assert hostname_matches("*.x.com", "api.x.com")
        assert not hostname_matches("*.x.com", "a.b.x.com")

    def test_wildcard_does_not_match_apex(self):
        assert not hostname_matches("*.x.com", "x.com")

    def test_wildcard_only_leading(self):
        assert not hostname_matches("api.*.com", "api.x.com")

    def test_empty_patterns(self):
        assert not hostname_matches("", "x.com")
        assert not hostname_matches("x.com", "")
        assert not hostname_matches("*.", "x")


class TestChainValidation:
    def test_valid_chain_returns_anchor(self, world):
        _, catalog, issued = world
        anchor = validate_chain(issued.chain, ctx_for(catalog.mozilla))
        assert anchor.is_ca

    def test_hostname_mismatch(self, world):
        _, catalog, issued = world
        with pytest.raises(ChainValidationError) as err:
            validate_chain(
                issued.chain, ctx_for(catalog.mozilla, hostname="evil.com")
            )
        assert err.value.reason == "hostname_mismatch"

    def test_hostname_check_disabled(self, world):
        _, catalog, issued = world
        ctx = ctx_for(catalog.mozilla, hostname="evil.com", check_hostname=False)
        assert chain_is_valid(issued.chain, ctx)

    def test_expired(self, world):
        _, catalog, issued = world
        with pytest.raises(ChainValidationError) as err:
            validate_chain(
                issued.chain,
                ctx_for(catalog.mozilla, at=STUDY_START.plus_years(30)),
            )
        assert err.value.reason == "expired"

    def test_not_yet_valid(self, world):
        _, catalog, issued = world
        with pytest.raises(ChainValidationError) as err:
            validate_chain(
                issued.chain,
                ctx_for(catalog.mozilla, at=STUDY_START.plus_years(-20)),
            )
        assert err.value.reason == "not_yet_valid"

    def test_untrusted_root(self, world):
        hierarchy, _, issued = world
        empty = RootStore("empty")
        with pytest.raises(ChainValidationError) as err:
            validate_chain(issued.chain, ctx_for(empty))
        assert err.value.reason == "untrusted_root"

    def test_forged_signature_detected(self, world):
        hierarchy, catalog, issued = world
        import dataclasses

        forged_leaf = dataclasses.replace(
            issued.chain.leaf, signature=b"forged-signature"
        )
        forged = CertificateChain(
            (forged_leaf,) + issued.chain.certificates[1:]
        )
        with pytest.raises(ChainValidationError) as err:
            validate_chain(forged, ctx_for(catalog.mozilla))
        assert err.value.reason == "bad_signature"

    def test_bad_link_order(self, world):
        _, catalog, issued = world
        reversed_chain = CertificateChain(
            tuple(reversed(issued.chain.certificates))
        )
        with pytest.raises(ChainValidationError) as err:
            validate_chain(reversed_chain, ctx_for(catalog.mozilla, hostname=""))
        assert err.value.reason == "bad_link"

    def test_non_ca_issuer_rejected(self):
        root = CertificateAuthority.self_signed_root("R", DeterministicRng(1))
        leaf1, key1 = root.issue("mid.com", not_before=STUDY_START)
        # Hand-craft a grandchild "signed" by the non-CA leaf.
        from repro.pki.certificate import Certificate, DistinguishedName

        grandchild = Certificate(
            subject=DistinguishedName("victim.com"),
            issuer=leaf1.subject,
            serial="1",
            not_before=STUDY_START,
            not_after=STUDY_START.plus_days(100),
            key=key1,
            san=("victim.com",),
            signature=key1.sign(b"whatever"),
        )
        chain = CertificateChain.of(grandchild, leaf1, root.certificate)
        store = RootStore("s", [root.certificate])
        with pytest.raises(ChainValidationError) as err:
            validate_chain(
                chain,
                ValidationContext(
                    store=store, hostname="", at_time=STUDY_START
                ),
            )
        assert err.value.reason == "not_ca"

    def test_trusted_terminal_direct(self, world):
        hierarchy, catalog, _ = world
        issued = hierarchy.issue_leaf_chain(
            "direct.com", DeterministicRng(40), include_root=True
        )
        anchor = validate_chain(
            issued.chain, ctx_for(catalog.mozilla, hostname="direct.com")
        )
        assert anchor.is_self_signed()


class TestClassifyPKI:
    def test_default_pki(self, world):
        _, catalog, issued = world
        assert classify_pki(issued.chain, catalog.mozilla, STUDY_START) == "default"

    def test_custom_pki(self, world):
        hierarchy, catalog, _ = world
        custom = hierarchy.mint_custom_root("Private")
        leaf, _ = custom.issue(
            "internal.private.com", not_before=STUDY_START, san=("internal.private.com",)
        )
        chain = CertificateChain.of(leaf, custom.certificate)
        assert classify_pki(chain, catalog.mozilla, STUDY_START) == "custom"
