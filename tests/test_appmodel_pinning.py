"""Tests for repro.appmodel.pinning and sdk."""

import pytest

from repro.appmodel.pinning import (
    PinForm,
    PinMechanism,
    PinningSpec,
    PinScope,
)
from repro.appmodel.sdk import sdk_by_name, sdks_for_platform
from repro.errors import AppModelError
from repro.pki.authority import PKIHierarchy
from repro.util.rng import DeterministicRng


@pytest.fixture(scope="module")
def issued():
    hierarchy = PKIHierarchy(DeterministicRng(81))
    return hierarchy.issue_leaf_chain(
        "spec.example.com", DeterministicRng(82), include_root=True
    )


class TestPinningSpec:
    def test_requires_domains(self):
        with pytest.raises(AppModelError):
            PinningSpec(domains=(), mechanism=PinMechanism.OKHTTP)

    def test_nsc_raw_form_coerced_to_spki(self):
        spec = PinningSpec(
            domains=("x.com",),
            mechanism=PinMechanism.NSC,
            form=PinForm.RAW_CERTIFICATE,
        )
        assert spec.form is PinForm.SPKI_SHA256

    def test_pick_certificate_by_scope(self, issued):
        chain = issued.chain
        for scope, expected in [
            (PinScope.LEAF, chain.leaf),
            (PinScope.INTERMEDIATE, chain.certificates[1]),
            (PinScope.ROOT, chain.terminal),
        ]:
            spec = PinningSpec(
                domains=("spec.example.com",),
                mechanism=PinMechanism.OKHTTP,
                scope=scope,
            )
            assert spec.pick_certificate(chain) is expected

    def test_pick_certificate_short_chain(self, issued):
        from repro.pki.chain import CertificateChain

        single = CertificateChain.of(issued.chain.leaf)
        spec = PinningSpec(
            domains=("spec.example.com",),
            mechanism=PinMechanism.OKHTTP,
            scope=PinScope.ROOT,
        )
        assert spec.pick_certificate(single) is issued.chain.leaf

    def test_resolve_spki(self, issued):
        spec = PinningSpec(
            domains=("spec.example.com",),
            mechanism=PinMechanism.OKHTTP,
            scope=PinScope.ROOT,
            form=PinForm.SPKI_SHA256,
        )
        resolved = spec.resolve_domain("spec.example.com", issued.chain)
        assert resolved.pin_strings[0].startswith("sha256/")
        assert resolved.pinned_cert_is_ca
        assert set(spec.resolved) == set(spec.domains)

    def test_resolve_sha1(self, issued):
        spec = PinningSpec(
            domains=("spec.example.com",),
            mechanism=PinMechanism.OKHTTP,
            form=PinForm.SPKI_SHA1,
        )
        resolved = spec.resolve_domain("spec.example.com", issued.chain)
        assert resolved.pin_strings[0].startswith("sha1/")

    def test_resolve_raw_certificate(self, issued):
        spec = PinningSpec(
            domains=("spec.example.com",),
            mechanism=PinMechanism.CUSTOM_TLS,
            scope=PinScope.LEAF,
            form=PinForm.RAW_CERTIFICATE,
        )
        resolved = spec.resolve_domain("spec.example.com", issued.chain)
        assert "BEGIN CERTIFICATE" in resolved.pem
        assert resolved.fingerprints
        assert not resolved.pinned_cert_is_ca

    def test_default_pki_flag(self, issued):
        spec = PinningSpec(
            domains=("spec.example.com",), mechanism=PinMechanism.OKHTTP
        )
        resolved = spec.resolve_domain(
            "spec.example.com", issued.chain, default_pki=False
        )
        assert resolved.default_pki is False

    def test_dormant_and_obfuscated_flags(self):
        spec = PinningSpec(
            domains=("x.com",),
            mechanism=PinMechanism.OKHTTP,
            dormant=True,
            obfuscated=True,
        )
        assert not spec.active_at_runtime()
        assert not spec.visible_to_static()

    def test_mechanism_platforms(self):
        assert PinMechanism.NSC.platform == "android"
        assert PinMechanism.ALAMOFIRE.platform == "ios"
        assert PinMechanism.CUSTOM_TLS.platform is None


class TestSDKCatalog:
    def test_lookup(self):
        assert sdk_by_name("Twitter") is not None
        assert sdk_by_name("Nonexistent") is None

    def test_platform_filter(self):
        android = sdks_for_platform("android")
        assert all(s.available_on("android") for s in android)
        assert any(s.name == "Braintree" for s in android)
        assert not any(s.name == "Weibo" for s in android)

    def test_table7_anchors_present(self):
        for name in ("Twitter", "Braintree", "Paypal", "Perimeterx", "MParticle"):
            sdk = sdk_by_name(name)
            assert sdk is not None and sdk.pins
        for name in ("Amplitude", "Stripe", "Weibo", "FraudForce"):
            sdk = sdk_by_name(name)
            assert sdk is not None and sdk.pins and sdk.available_on("ios")

    def test_make_pinning_spec(self):
        twitter = sdk_by_name("Twitter")
        spec = twitter.make_pinning_spec("android")
        assert spec is not None
        assert spec.source == "Twitter"
        assert spec.code_path == twitter.code_path_android

    def test_make_pinning_spec_non_pinning_sdk(self):
        firebase = sdk_by_name("Firebase")
        assert firebase.make_pinning_spec("android") is None

    def test_cross_platform_mechanism_adaptation(self):
        amplitude = sdk_by_name("Amplitude")
        ios_spec = amplitude.make_pinning_spec("ios")
        android_spec = amplitude.make_pinning_spec("android")
        assert ios_spec.mechanism is PinMechanism.URLSESSION
        assert android_spec.mechanism is PinMechanism.OKHTTP

    def test_paypal_dormant_on_android(self):
        paypal = sdk_by_name("Paypal")
        assert paypal.dormant_on("android")
        assert not paypal.dormant_on("ios")

    def test_firestore_obfuscated_pins(self):
        firestore = sdk_by_name("Firestore")
        spec = firestore.make_pinning_spec("ios")
        assert spec.obfuscated
