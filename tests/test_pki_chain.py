"""Tests for repro.pki.chain."""

import pytest

from repro.errors import CertificateError
from repro.pki.authority import CertificateAuthority, PKIHierarchy
from repro.pki.chain import CertificateChain
from repro.util.rng import DeterministicRng


@pytest.fixture(scope="module")
def issued():
    hierarchy = PKIHierarchy(DeterministicRng(11))
    return hierarchy.issue_leaf_chain(
        "www.chain-test.com", DeterministicRng(12), include_root=True
    )


class TestChainStructure:
    def test_empty_chain_rejected(self):
        with pytest.raises(CertificateError):
            CertificateChain(())

    def test_leaf_and_terminal(self, issued):
        chain = issued.chain
        assert chain.leaf.common_name == "www.chain-test.com"
        assert chain.terminal.is_ca
        assert len(chain) == 3

    def test_intermediates(self, issued):
        assert len(issued.chain.intermediates) == 1
        assert issued.chain.intermediates[0].is_ca

    def test_links_consistent(self, issued):
        assert issued.chain.links_consistent()

    def test_links_inconsistent_when_shuffled(self, issued):
        certs = issued.chain.certificates
        shuffled = CertificateChain((certs[1], certs[0], certs[2]))
        assert not shuffled.links_consistent()

    def test_contains(self, issued):
        assert issued.chain.leaf in issued.chain


class TestChainQueries:
    def test_contains_spki(self, issued):
        leaf_pin = issued.chain.leaf.spki_pin()
        root_pin = issued.chain.terminal.spki_pin()
        assert issued.chain.contains_spki(leaf_pin)
        assert issued.chain.contains_spki(root_pin)

    def test_contains_spki_sha1(self, issued):
        assert issued.chain.contains_spki(issued.chain.leaf.spki_pin("sha1"))

    def test_contains_spki_negative(self, issued):
        other = PKIHierarchy(DeterministicRng(99)).issue_leaf_chain(
            "x.com", DeterministicRng(98)
        )
        assert not issued.chain.contains_spki(other.chain.leaf.spki_pin())


class TestSelfSigned:
    def test_single_self_signed(self):
        root = CertificateAuthority.self_signed_root(
            "lonely.example.com", DeterministicRng(3)
        )
        chain = CertificateChain.of(root.certificate)
        assert chain.is_single_self_signed()

    def test_regular_chain_is_not_self_signed(self, issued):
        assert not issued.chain.is_single_self_signed()
