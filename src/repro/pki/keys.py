"""Simulated key pairs and SubjectPublicKeyInfo digests.

A :class:`KeyPair` carries opaque public bytes (the simulated SPKI).  Pins in
the HPKP / OkHttp ``CertificatePinner`` style are digests of those bytes,
rendered ``sha256/<base64>`` or ``sha1/<base64>`` — exactly the token shape
the paper's static analysis greps for with
``sha(1|256)/[a-zA-Z0-9+/=]{28,64}``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EncodingError
from repro.util.digest import sha1, sha256
from repro.util.encoding import b64encode
from repro.util.rng import DeterministicRng


@dataclass(frozen=True)
class KeyPair:
    """A simulated asymmetric key pair.

    Attributes:
        key_id: short stable identifier (useful in debug output).
        public_bytes: the simulated SubjectPublicKeyInfo encoding.  Two
            certificates share a public key iff these bytes are equal —
            which is how Section 5.3.3's "key reuse across certificate
            renewals" is modelled.
        algorithm: nominal key algorithm label (``rsa2048``, ``ecdsa_p256``).
    """

    key_id: str
    public_bytes: bytes
    algorithm: str = "rsa2048"

    @classmethod
    def generate(cls, rng: DeterministicRng, algorithm: str = "rsa2048") -> "KeyPair":
        """Generate a fresh key pair from the given RNG."""
        key_id = rng.hex_string(16)
        size = 64 if algorithm == "rsa2048" else 32
        public_bytes = rng.random_bytes(size)
        return cls(key_id=key_id, public_bytes=public_bytes, algorithm=algorithm)

    def spki_sha256(self) -> bytes:
        """Raw SHA-256 digest of the SPKI bytes."""
        return sha256(self.public_bytes).digest()

    def spki_sha1(self) -> bytes:
        """Raw SHA-1 digest of the SPKI bytes."""
        return sha1(self.public_bytes).digest()

    def pin(self, algorithm: str = "sha256") -> str:
        """Render the HPKP-style pin string for this key."""
        return spki_pin(self, algorithm=algorithm)

    def sign(self, payload: bytes) -> bytes:
        """Produce a simulated signature binding ``payload`` to this key.

        The signature is a digest of the public identity plus the payload;
        see the package docstring for why this is sufficient for the
        reproduction.
        """
        return sha256(b"SIG" + self.public_bytes + payload).digest()

    def verify(self, payload: bytes, signature: bytes) -> bool:
        """Check a simulated signature allegedly made by this key."""
        return self.sign(payload) == signature


def spki_pin(key: KeyPair, algorithm: str = "sha256") -> str:
    """Format the pin string (``sha256/AAAA...=``) for a key.

    Args:
        key: the key whose SPKI is pinned.
        algorithm: ``"sha256"`` or ``"sha1"``.

    Raises:
        EncodingError: for an unsupported algorithm.
    """
    if algorithm not in ("sha256", "sha1"):
        raise EncodingError(f"unsupported pin algorithm: {algorithm!r}")
    digest = key.spki_sha256() if algorithm == "sha256" else key.spki_sha1()
    return f"{algorithm}/{b64encode(digest)}"
