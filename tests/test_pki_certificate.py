"""Tests for repro.pki.certificate."""

import pytest

from repro.errors import CertificateError
from repro.pki.authority import CertificateAuthority
from repro.pki.certificate import (
    Certificate,
    DistinguishedName,
    parse_der,
)
from repro.pki.keys import KeyPair
from repro.util.rng import DeterministicRng
from repro.util.simtime import STUDY_START, Timestamp


@pytest.fixture
def root():
    return CertificateAuthority.self_signed_root(
        "Test Root", DeterministicRng(1)
    )


@pytest.fixture
def leaf(root):
    cert, _ = root.issue(
        "api.test.com", san=("api.test.com",), not_before=STUDY_START
    )
    return cert


class TestDistinguishedName:
    def test_render_full(self):
        name = DistinguishedName("cn", organization="org", country="US")
        assert name.render() == "CN=cn, O=org, C=US"

    def test_render_minimal(self):
        assert DistinguishedName("cn").render() == "CN=cn"

    def test_equality(self):
        assert DistinguishedName("a") == DistinguishedName("a")
        assert DistinguishedName("a") != DistinguishedName("a", "org")


class TestCertificate:
    def test_empty_validity_window_rejected(self):
        key = KeyPair.generate(DeterministicRng(1))
        name = DistinguishedName("x")
        with pytest.raises(CertificateError):
            Certificate(
                subject=name,
                issuer=name,
                serial="1",
                not_before=Timestamp(100),
                not_after=Timestamp(100),
                key=key,
            )

    def test_self_signed_detection(self, root, leaf):
        assert root.certificate.is_self_signed()
        assert not leaf.is_self_signed()

    def test_validity_checks(self, leaf):
        assert not leaf.is_expired(STUDY_START.plus_days(1))
        assert leaf.is_expired(STUDY_START.plus_years(1000))

    def test_validity_years(self, root):
        assert root.certificate.validity_years() == pytest.approx(25.0, abs=0.1)

    def test_fingerprint_stable_and_unique(self, root, leaf):
        assert leaf.fingerprint_sha256() == leaf.fingerprint_sha256()
        assert leaf.fingerprint_sha256() != root.certificate.fingerprint_sha256()

    def test_matches_hostname_via_san(self, leaf):
        assert leaf.matches_hostname("api.test.com")
        assert not leaf.matches_hostname("other.test.com")

    def test_matches_hostname_cn_fallback(self, root):
        cert, _ = root.issue("bare.example.com", not_before=STUDY_START, san=())
        assert cert.matches_hostname("bare.example.com")

    def test_spki_pin_tracks_key(self, root):
        key = KeyPair.generate(DeterministicRng(5))
        a, _ = root.issue("a.com", key=key, not_before=STUDY_START)
        b, _ = root.issue("b.com", key=key, not_before=STUDY_START)
        assert a.spki_pin() == b.spki_pin()
        assert a.fingerprint_sha256() != b.fingerprint_sha256()


class TestDERRoundtrip:
    def test_parse_der_roundtrip(self, leaf):
        parsed = parse_der(leaf.to_der())
        assert parsed.common_name == "api.test.com"
        assert parsed.is_ca is False
        assert parsed.serial == leaf.serial
        assert parsed.not_before == leaf.not_before
        assert parsed.san == leaf.san
        assert parsed.spki_bytes == leaf.key.public_bytes
        assert parsed.spki_sha256() == leaf.key.spki_sha256()

    def test_parse_der_ca_flag(self, root):
        parsed = parse_der(root.certificate.to_der())
        assert parsed.is_ca is True

    def test_parse_der_rejects_garbage(self):
        with pytest.raises(CertificateError):
            parse_der(b"random junk")

    def test_parse_der_signature_containing_separator(self, leaf):
        # Signatures are arbitrary bytes and may contain the 0x1f
        # tbs/signature separator; the parser must split on the *first*
        # occurrence or it silently corrupts the spki field (and the
        # static scanner then drops the certificate entirely).
        signature = b"\x01\x1f\x02\x1f\x03"
        der = leaf.tbs_bytes() + b"\x1f" + signature
        parsed = parse_der(der)
        assert parsed.spki_bytes == leaf.key.public_bytes
        assert parsed.signature == signature

    def test_parse_der_rejects_missing_separator(self, leaf):
        with pytest.raises(CertificateError):
            parse_der(leaf.tbs_bytes())

    def test_pem_contains_delimiters(self, leaf):
        pem = leaf.to_pem()
        assert pem.startswith("-----BEGIN CERTIFICATE-----")
        assert "-----END CERTIFICATE-----" in pem
