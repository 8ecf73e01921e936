"""Tests for endpoint renewal, party attribution and the error hierarchy."""

import pytest

from repro.errors import (
    AnalysisError,
    AppModelError,
    CertificateError,
    ChainValidationError,
    CorpusError,
    DeviceError,
    EncodingError,
    InstrumentationError,
    PackageEncryptedError,
    PKIError,
    ReproError,
)
from repro.pki.authority import PKIHierarchy
from repro.servers.parties import PartyDirectory, registrable_domain
from repro.util.rng import DeterministicRng


def renewed_chain(hierarchy, endpoint, seed, reuse_key):
    """The endpoint's chain after a leaf renewal, optionally under the
    same key."""
    key = endpoint.leaf_key if reuse_key else None
    return hierarchy.issue_leaf_chain(endpoint.hostname, DeterministicRng(seed), key=key).chain


class TestEndpointRenewal:
    @pytest.fixture()
    def world(self):
        hierarchy = PKIHierarchy(DeterministicRng(121))
        from repro.servers.registry import EndpointRegistry

        registry = EndpointRegistry(hierarchy, DeterministicRng(122))
        endpoint = registry.create_default_pki_endpoint(
            "renew.example.com", "RenewCo"
        )
        return hierarchy, endpoint

    def test_renew_with_key_reuse_preserves_spki(self, world):
        hierarchy, endpoint = world
        renewed = renewed_chain(hierarchy, endpoint, 5, reuse_key=True)
        assert renewed.leaf.spki_pin() == endpoint.chain.leaf.spki_pin()
        assert renewed.leaf.fingerprint_sha256() != endpoint.chain.leaf.fingerprint_sha256()

    def test_renew_without_key_reuse_breaks_spki(self, world):
        hierarchy, endpoint = world
        renewed = renewed_chain(hierarchy, endpoint, 6, reuse_key=False)
        assert renewed.leaf.spki_pin() != endpoint.chain.leaf.spki_pin()

    def test_spki_pin_survives_renewal_raw_pin_does_not(self, world):
        """The Section 5.3.3 mechanic end to end."""
        from repro.tls.policy import PinnedCertificatePolicy, SpkiPinPolicy
        from repro.util.simtime import STUDY_START

        hierarchy, endpoint = world
        spki = SpkiPinPolicy([endpoint.chain.leaf.spki_pin()])
        raw = PinnedCertificatePolicy(
            [endpoint.chain.leaf.fingerprint_sha256()]
        )
        renewed = renewed_chain(hierarchy, endpoint, 7, reuse_key=True)
        assert spki.accepts(renewed, "renew.example.com", STUDY_START)
        assert not raw.accepts(renewed, "renew.example.com", STUDY_START)


class TestRegistrableDomain:
    def test_two_labels(self):
        assert registrable_domain("example.com") == "example.com"

    def test_deep_hostname(self):
        assert registrable_domain("a.b.example.com") == "example.com"

    def test_single_label(self):
        assert registrable_domain("localhost") == "localhost"

    def test_case_and_dot(self):
        assert registrable_domain("API.Example.COM.") == "example.com"


class TestPartyDirectory:
    def test_classify_with_cert_fallback(self):
        from repro.pki.authority import CertificateAuthority
        from repro.pki.chain import CertificateChain
        from repro.util.simtime import STUDY_START

        directory = PartyDirectory()
        root = CertificateAuthority.self_signed_root("R", DeterministicRng(1))
        leaf, _ = root.issue(
            "api.unknown.com",
            san=("api.unknown.com",),
            not_before=STUDY_START,
            organization="MysteryCorp",
        )
        chain = CertificateChain.of(leaf, root.certificate)
        assert directory.classify("api.unknown.com", "MysteryCorp", chain) == "first"
        assert directory.classify("api.unknown.com", "OtherCorp", chain) == "third"

    def test_unknown_defaults_to_third(self):
        assert PartyDirectory().classify("x.com", "Anyone") == "third"

    def test_directory_wins_over_cert(self):
        directory = PartyDirectory()
        directory.register("x.com", "RealOwner")
        assert directory.classify("api.x.com", "RealOwner") == "first"


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_class",
        [
            PKIError,
            CertificateError,
            ChainValidationError,
            EncodingError,
            AppModelError,
            PackageEncryptedError,
            DeviceError,
            CorpusError,
            AnalysisError,
            InstrumentationError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_class):
        assert issubclass(error_class, ReproError)

    def test_chain_validation_reason(self):
        error = ChainValidationError("boom", reason="expired")
        assert error.reason == "expired"

    def test_package_encrypted_is_app_model_error(self):
        assert issubclass(PackageEncryptedError, AppModelError)
