"""Tests for repro.pki.authority."""

import pytest

from repro.errors import CertificateError
from repro.pki.authority import (
    CertificateAuthority,
    DEFAULT_ROOT_OPERATORS,
    PKIHierarchy,
)
from repro.util.rng import DeterministicRng
from repro.util.simtime import STUDY_START


@pytest.fixture(scope="module")
def hierarchy():
    return PKIHierarchy(DeterministicRng(21))


class TestCertificateAuthority:
    def test_root_is_self_signed_ca(self):
        root = CertificateAuthority.self_signed_root("R", DeterministicRng(1))
        assert root.certificate.is_ca
        assert root.certificate.is_self_signed()

    def test_issue_signs_with_ca_key(self):
        root = CertificateAuthority.self_signed_root("R", DeterministicRng(1))
        cert, _ = root.issue("leaf.com", not_before=STUDY_START)
        assert root.key.verify(cert.tbs_bytes(), cert.signature)
        assert cert.issuer == root.name

    def test_issue_unique_serials(self):
        root = CertificateAuthority.self_signed_root("R", DeterministicRng(1))
        a, _ = root.issue("a.com", not_before=STUDY_START)
        b, _ = root.issue("b.com", not_before=STUDY_START)
        assert a.serial != b.serial

    def test_issue_with_key_reuse(self):
        root = CertificateAuthority.self_signed_root("R", DeterministicRng(1))
        first, key = root.issue("renew.com", not_before=STUDY_START)
        renewed, key2 = root.issue(
            "renew.com", key=key, not_before=STUDY_START.plus_days(300)
        )
        assert key2 is key
        assert renewed.spki_pin() == first.spki_pin()
        assert renewed.fingerprint_sha256() != first.fingerprint_sha256()

    def test_child_cannot_predate_issuer(self):
        root = CertificateAuthority.self_signed_root("R", DeterministicRng(1))
        too_early = root.certificate.not_before.plus_days(-10)
        with pytest.raises(CertificateError):
            root.issue("x.com", not_before=too_early)

    def test_non_ca_cannot_become_authority(self):
        root = CertificateAuthority.self_signed_root("R", DeterministicRng(1))
        leaf, key = root.issue("leaf.com", not_before=STUDY_START)
        with pytest.raises(CertificateError):
            CertificateAuthority(leaf, key, DeterministicRng(2))

    def test_issue_intermediate(self):
        root = CertificateAuthority.self_signed_root("R", DeterministicRng(1))
        inter = root.issue_intermediate("R Intermediate")
        assert inter.certificate.is_ca
        assert inter.certificate.issuer == root.name


class TestPKIHierarchy:
    def test_default_operators(self, hierarchy):
        assert len(hierarchy.roots) == len(DEFAULT_ROOT_OPERATORS)
        assert len(hierarchy.root_certificates()) == len(hierarchy.roots)

    def test_leaf_chain_valid_at_study_time(self, hierarchy):
        issued = hierarchy.issue_leaf_chain("a.example.net", DeterministicRng(5))
        for cert in issued.chain:
            assert cert.not_before.unix <= STUDY_START.unix <= cert.not_after.unix

    def test_leaf_chain_without_root(self, hierarchy):
        issued = hierarchy.issue_leaf_chain("b.example.net", DeterministicRng(6))
        assert len(issued.chain) == 2
        assert issued.chain.terminal.is_ca

    def test_leaf_chain_with_root(self, hierarchy):
        issued = hierarchy.issue_leaf_chain(
            "c.example.net", DeterministicRng(7), include_root=True
        )
        assert len(issued.chain) == 3
        assert issued.chain.terminal.is_self_signed()

    def test_wildcard_chain(self, hierarchy):
        issued = hierarchy.issue_leaf_chain(
            "img.cdnhost.net", DeterministicRng(8), wildcard=True
        )
        assert "*.cdnhost.net" in issued.chain.leaf.san
        assert issued.chain.leaf.matches_hostname("anything.cdnhost.net")

    def test_pick_root_skews_to_head(self, hierarchy):
        rng = DeterministicRng(9)
        picks = [hierarchy.pick_root(rng).name.common_name for _ in range(500)]
        head = DEFAULT_ROOT_OPERATORS[0]
        tail = DEFAULT_ROOT_OPERATORS[-1]
        assert picks.count(head) > picks.count(tail)

    def test_custom_root_not_in_default_roots(self, hierarchy):
        custom = hierarchy.mint_custom_root("SomeCorp")
        defaults = {c.fingerprint_sha256() for c in hierarchy.root_certificates()}
        assert custom.certificate.fingerprint_sha256() not in defaults
