"""Simulated X.509 public-key infrastructure.

This package models everything the paper's pipelines observe about the real
PKI without performing real cryptography:

* :mod:`repro.pki.keys` — key pairs and SubjectPublicKeyInfo (SPKI) digests,
  the unit of HPKP-style pinning (``sha256/<base64>``).
* :mod:`repro.pki.certificate` — certificates with subject/issuer names,
  SANs, validity windows, CA flags and deterministic DER-like encodings.
* :mod:`repro.pki.authority` — certificate authorities and a hierarchy
  builder that issues realistic root → intermediate → leaf chains.
* :mod:`repro.pki.chain` — ordered certificate chains as served in TLS.
* :mod:`repro.pki.store` — root stores (Mozilla, AOSP, iOS, OEM-extended).
* :mod:`repro.pki.validation` — chain validation: signatures, validity
  windows, hostname matching, path to a trusted root.
* :mod:`repro.pki.ctlog` — a Certificate Transparency index standing in for
  crt.sh, used by static analysis to resolve SPKI hashes to certificates.

Signatures are simulated: a signature is a digest binding the to-be-signed
payload to the *public* identity of the issuer key.  This gives validation
the same structure as the real thing (a chain "verifies" iff each link names
and matches its issuer) while staying dependency-free; adversarial forgery
is modelled behaviourally (the MITM proxy signs with its own CA) rather than
cryptographically.
"""

from repro.pki.authority import CertificateAuthority, PKIHierarchy
from repro.pki.certificate import Certificate, DistinguishedName
from repro.pki.chain import CertificateChain
from repro.pki.ctlog import CTLog
from repro.pki.keys import KeyPair, spki_pin
from repro.pki.store import RootStore, StoreCatalog
from repro.pki.validation import (
    ValidationContext,
    classify_pki,
    hostname_matches,
    validate_chain,
)

__all__ = [
    "Certificate",
    "CertificateAuthority",
    "CertificateChain",
    "CTLog",
    "DistinguishedName",
    "KeyPair",
    "PKIHierarchy",
    "RootStore",
    "StoreCatalog",
    "ValidationContext",
    "classify_pki",
    "hostname_matches",
    "spki_pin",
    "validate_chain",
]
