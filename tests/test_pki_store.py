"""Tests for repro.pki.store and ctlog and pem."""

import pytest

from repro.pki.authority import PKIHierarchy
from repro.pki.ctlog import CTLog
from repro.pki.pem import load_pem_certificates
from repro.pki.store import RootStore, StoreCatalog
from repro.util.encoding import b64encode, pem_wrap
from repro.util.rng import DeterministicRng


@pytest.fixture(scope="module")
def hierarchy():
    return PKIHierarchy(DeterministicRng(41))


@pytest.fixture(scope="module")
def catalog(hierarchy):
    return StoreCatalog.build(hierarchy)


class TestRootStore:
    def test_add_and_trust(self, hierarchy):
        store = RootStore("t")
        root = hierarchy.roots[0].certificate
        store.add(root)
        assert store.trusts(root)
        assert root in store
        assert len(store) == 1

    def test_rejects_non_ca(self, hierarchy):
        issued = hierarchy.issue_leaf_chain("x.com", DeterministicRng(1))
        store = RootStore("t")
        with pytest.raises(ValueError):
            store.add(issued.chain.leaf)

    def test_remove(self, hierarchy):
        root = hierarchy.roots[0].certificate
        store = RootStore("t", [root])
        store.remove(root)
        assert not store.trusts(root)

    def test_find_issuer(self, hierarchy):
        issued = hierarchy.issue_leaf_chain("y.com", DeterministicRng(2))
        store = RootStore("t", hierarchy.root_certificates())
        anchor = store.find_issuer(issued.chain.terminal)
        assert anchor is not None
        assert anchor.subject == issued.chain.terminal.issuer

    def test_copy_is_independent(self, hierarchy):
        store = RootStore("t", hierarchy.root_certificates())
        clone = store.copy("clone")
        extra = hierarchy.mint_custom_root("X").certificate
        clone.add(extra)
        assert clone.trusts(extra)
        assert not store.trusts(extra)

    def test_same_subject_different_key_not_trusted(self, hierarchy):
        from repro.pki.authority import CertificateAuthority

        a = CertificateAuthority.self_signed_root("Twin", DeterministicRng(1))
        b = CertificateAuthority.self_signed_root("Twin", DeterministicRng(2))
        store = RootStore("t", [a.certificate])
        assert not store.trusts(b.certificate)


class TestStoreCatalog:
    def test_all_issuing_roots_everywhere(self, hierarchy, catalog):
        for root in hierarchy.root_certificates():
            assert catalog.mozilla.trusts(root)
            assert catalog.android_aosp.trusts(root)
            assert catalog.ios.trusts(root)
            assert catalog.android_oem.trusts(root)

    def test_stores_differ_in_tails(self, catalog):
        moz = {c.fingerprint_sha256() for c in catalog.mozilla}
        ios = {c.fingerprint_sha256() for c in catalog.ios}
        oem = {c.fingerprint_sha256() for c in catalog.android_oem}
        assert moz != ios
        assert len(oem) > len(moz) - 1

    def test_oem_superset_of_aosp(self, catalog):
        aosp = {c.fingerprint_sha256() for c in catalog.android_aosp}
        oem = {c.fingerprint_sha256() for c in catalog.android_oem}
        assert aosp < oem


class TestCTLog:
    def test_logs_and_finds_by_pin(self, hierarchy):
        log = CTLog()
        issued = hierarchy.issue_leaf_chain("ct.example.com", DeterministicRng(3))
        log.log_chain(issued.chain)
        hits = log.search_pin(issued.chain.leaf.spki_pin())
        assert [c.common_name for c in hits] == ["ct.example.com"]

    def test_finds_by_hex_digest(self, hierarchy):
        log = CTLog()
        issued = hierarchy.issue_leaf_chain("hex.example.com", DeterministicRng(4))
        log.log_chain(issued.chain)
        hex_digest = issued.chain.leaf.key.spki_sha256().hex()
        assert log.search_spki(hex_digest)

    def test_finds_by_sha1(self, hierarchy):
        log = CTLog()
        issued = hierarchy.issue_leaf_chain("sha1.example.com", DeterministicRng(5))
        log.log_chain(issued.chain)
        assert log.search_pin(issued.chain.leaf.spki_pin("sha1"))

    def test_unpadded_base64_lookup(self, hierarchy):
        log = CTLog()
        issued = hierarchy.issue_leaf_chain("pad.example.com", DeterministicRng(6))
        log.log_chain(issued.chain)
        digest = b64encode(issued.chain.leaf.key.spki_sha256()).rstrip("=")
        assert log.search_spki(digest)

    def test_idempotent_logging(self, hierarchy):
        log = CTLog()
        issued = hierarchy.issue_leaf_chain("dup.example.com", DeterministicRng(7))
        log.log_chain(issued.chain)
        before = log.size
        log.log_chain(issued.chain)
        assert log.size == before

    def test_miss_returns_empty(self):
        assert CTLog().search_pin("sha256/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA=") == []

    @pytest.mark.parametrize("algorithm", ["sha256", "sha1"])
    @pytest.mark.parametrize("encoding", ["padded", "unpadded", "hex"])
    def test_every_digest_encoding_finds_the_leaf(self, hierarchy, algorithm, encoding):
        log = CTLog()
        issued = hierarchy.issue_leaf_chain("enc.example.com", DeterministicRng(9))
        log.log_chain(issued.chain)
        key = issued.chain.leaf.key
        raw = key.spki_sha256() if algorithm == "sha256" else key.spki_sha1()
        digest = {
            "padded": b64encode(raw),
            "unpadded": b64encode(raw).rstrip("="),
            "hex": raw.hex(),
        }[encoding]
        assert [c.common_name for c in log.search_spki(digest)] == ["enc.example.com"]

    def test_logged_after_search_found_by_next_search(self, hierarchy):
        issued = hierarchy.issue_leaf_chain("pin.me.com", DeterministicRng(74))
        leaf = issued.chain.leaf
        log = CTLog()
        pin = leaf.spki_pin()
        assert log.search_pin(pin) == []
        log.log_certificate(leaf)
        assert log.search_pin(pin) == [leaf]

    def test_repeat_searches_stable(self, hierarchy):
        issued = hierarchy.issue_leaf_chain("stable.com", DeterministicRng(76))
        log = CTLog()
        log.log_chain(issued.chain)
        pin = issued.chain.leaf.spki_pin()
        first = log.search_pin(pin)
        first.clear()  # a caller's list is its own
        assert log.search_pin(pin) == log.search_pin(pin) == [issued.chain.leaf]


class TestPEMLoading:
    def test_loads_bundle(self, hierarchy):
        issued = hierarchy.issue_leaf_chain("pem.example.com", DeterministicRng(8))
        certs = load_pem_certificates("\n".join(cert.to_pem() for cert in issued.chain))
        assert len(certs) == 2
        assert certs[0].common_name == "pem.example.com"

    def test_skips_non_certificate_blocks(self):
        junk = pem_wrap(b"not a certificate at all")
        assert load_pem_certificates(junk) == []

    def test_empty_text(self):
        assert load_pem_certificates("no pem here") == []
