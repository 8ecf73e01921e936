"""Tests for repro.pki.keys."""

import pytest

from repro.errors import EncodingError
from repro.pki.keys import KeyPair, spki_pin
from repro.util.rng import DeterministicRng


@pytest.fixture
def key():
    return KeyPair.generate(DeterministicRng(1))


class TestKeyPair:
    def test_generation_deterministic(self):
        a = KeyPair.generate(DeterministicRng(9))
        b = KeyPair.generate(DeterministicRng(9))
        assert a.public_bytes == b.public_bytes
        assert a.key_id == b.key_id

    def test_distinct_seeds_distinct_keys(self):
        a = KeyPair.generate(DeterministicRng(1))
        b = KeyPair.generate(DeterministicRng(2))
        assert a.public_bytes != b.public_bytes

    def test_ecdsa_key_is_shorter(self):
        rsa = KeyPair.generate(DeterministicRng(1), "rsa2048")
        ec = KeyPair.generate(DeterministicRng(1), "ecdsa_p256")
        assert len(ec.public_bytes) < len(rsa.public_bytes)

    def test_spki_digests_stable(self, key):
        assert key.spki_sha256() == key.spki_sha256()
        assert len(key.spki_sha256()) == 32
        assert len(key.spki_sha1()) == 20

    def test_sign_verify(self, key):
        sig = key.sign(b"payload")
        assert key.verify(b"payload", sig)
        assert not key.verify(b"other", sig)

    def test_cross_key_verification_fails(self, key):
        other = KeyPair.generate(DeterministicRng(99))
        assert not other.verify(b"payload", key.sign(b"payload"))


class TestPinStrings:
    def test_sha256_pin_format(self, key):
        pin = spki_pin(key)
        assert pin.startswith("sha256/")
        assert pin.partition("/")[2]

    def test_sha1_pin_format(self, key):
        assert spki_pin(key, "sha1").startswith("sha1/")

    def test_pin_matches_paper_regex(self, key):
        import re

        pattern = re.compile(r"sha(1|256)/[a-zA-Z0-9+/=]{28,64}")
        assert pattern.fullmatch(spki_pin(key))
        assert pattern.fullmatch(spki_pin(key, "sha1"))

    def test_unknown_algorithm_raises(self, key):
        with pytest.raises(EncodingError):
            spki_pin(key, "md5")

    def test_key_pin_shortcut(self, key):
        assert key.pin() == spki_pin(key)
