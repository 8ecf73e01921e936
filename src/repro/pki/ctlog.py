"""A Certificate Transparency index standing in for crt.sh.

The paper resolves SPKI hashes found in app packages to actual certificates
by querying crt.sh (Section 4.1.3).  :class:`CTLog` indexes every
certificate the simulated PKI issues, keyed by SPKI digest (both sha1 and
sha256, both base64 and hex — the encodings the hash-grep can surface).

Coverage is intentionally imperfect: private/custom-PKI certificates are
never logged, mirroring the paper's observation that only ~50 % of unique
pins resolved to certificates (Section 5.3).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.pki.certificate import Certificate
from repro.pki.chain import CertificateChain
from repro.util.encoding import b64encode


class CTLog:
    """An in-memory index of publicly logged certificates."""

    def __init__(self):
        self._by_digest: Dict[str, List[Certificate]] = {}
        self._seen: Set[str] = set()

    def _index_keys(self, cert: Certificate) -> List[str]:
        sha256 = cert.key.spki_sha256()
        sha1 = cert.key.spki_sha1()
        return [
            b64encode(sha256),
            sha256.hex(),
            b64encode(sha1),
            sha1.hex(),
        ]

    def log_certificate(self, cert: Certificate) -> None:
        """Add one certificate to the index (idempotent per fingerprint)."""
        fingerprint = cert.fingerprint_sha256()
        if fingerprint in self._seen:
            return
        self._seen.add(fingerprint)
        for key in self._index_keys(cert):
            self._by_digest.setdefault(key, []).append(cert)

    def log_chain(self, chain: CertificateChain) -> None:
        """Log every certificate in a served chain."""
        for cert in chain:
            self.log_certificate(cert)

    def search_spki(self, digest: str) -> List[Certificate]:
        """Look up certificates whose SPKI digest matches.

        Args:
            digest: base64 or hex encoding of a sha1/sha256 SPKI digest.
                Trailing base64 padding may be present or absent.
        """
        hits = self._by_digest.get(digest)
        if hits is None and not digest.endswith("="):
            for pad in ("=", "=="):
                hits = self._by_digest.get(digest + pad)
                if hits is not None:
                    break
        return list(hits or ())

    def search_pin(self, pin: str) -> List[Certificate]:
        """Look up a ``shaN/<base64>`` pin string."""
        _, _, digest = pin.partition("/")
        return self.search_spki(digest)

    @property
    def size(self) -> int:
        """Number of distinct certificates logged."""
        return len(self._seen)
