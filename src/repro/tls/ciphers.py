"""Ciphersuite registry and weak-cipher classification.

Table 8 counts connections that *advertise* support for bad ciphersuites
(DES, 3DES, RC4 or EXPORT).  The registry below carries enough real suite
names for captures to look authentic and for the classifier to have
something to find.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class CipherSuite:
    """A TLS ciphersuite.

    Attributes:
        name: IANA-style name.
        min_version: lowest protocol version the suite applies to
            (``"1.3"`` suites are AEAD-only TLS 1.3 suites).
        weak: True for suites in the paper's "bad ciphers" classes.
    """

    name: str
    min_version: str = "1.0"
    weak: bool = False

    def __str__(self) -> str:  # pragma: no cover - display only
        return self.name

    def __reduce__(self):
        # Unpickle into the registry constant of the same value.
        return _registry_suite, (self.name, self.min_version, self.weak)


# TLS 1.3 suites.
TLS13_SUITES: Tuple[CipherSuite, ...] = (
    CipherSuite("TLS_AES_128_GCM_SHA256", "1.3"),
    CipherSuite("TLS_AES_256_GCM_SHA384", "1.3"),
    CipherSuite("TLS_CHACHA20_POLY1305_SHA256", "1.3"),
)

# Strong TLS 1.2 suites.
TLS12_STRONG_SUITES: Tuple[CipherSuite, ...] = (
    CipherSuite("TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256", "1.2"),
    CipherSuite("TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384", "1.2"),
    CipherSuite("TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256", "1.2"),
    CipherSuite("TLS_ECDHE_ECDSA_WITH_CHACHA20_POLY1305_SHA256", "1.2"),
    CipherSuite("TLS_ECDHE_RSA_WITH_AES_128_CBC_SHA", "1.0"),
    CipherSuite("TLS_RSA_WITH_AES_128_CBC_SHA", "1.0"),
)

# The paper's "bad ciphers": DES, 3DES, RC4, EXPORT.
WEAK_SUITES: Tuple[CipherSuite, ...] = (
    CipherSuite("TLS_RSA_WITH_3DES_EDE_CBC_SHA", "1.0", weak=True),
    CipherSuite("TLS_ECDHE_RSA_WITH_3DES_EDE_CBC_SHA", "1.0", weak=True),
    CipherSuite("TLS_RSA_WITH_RC4_128_SHA", "1.0", weak=True),
    CipherSuite("TLS_RSA_WITH_RC4_128_MD5", "1.0", weak=True),
    CipherSuite("TLS_RSA_WITH_DES_CBC_SHA", "1.0", weak=True),
    CipherSuite("TLS_RSA_EXPORT_WITH_RC4_40_MD5", "1.0", weak=True),
    CipherSuite("TLS_RSA_EXPORT_WITH_DES40_CBC_SHA", "1.0", weak=True),
)

MODERN_SUITES: Tuple[CipherSuite, ...] = TLS13_SUITES + TLS12_STRONG_SUITES

ALL_SUITES: Tuple[CipherSuite, ...] = MODERN_SUITES + WEAK_SUITES

_WEAK_MARKERS = ("_DES_", "3DES", "RC4", "EXPORT")

#: The registry by IANA name.
SUITES_BY_NAME = {suite.name: suite for suite in ALL_SUITES}


def _registry_suite(name: str, min_version: str, weak: bool) -> CipherSuite:
    """Unpickle a suite as its registry constant; a suite that matches
    none is constructed."""
    suite = SUITES_BY_NAME.get(name)
    if suite is not None and suite.min_version == min_version and suite.weak == weak:
        return suite
    return CipherSuite(name, min_version, weak)


def is_weak_suite(suite) -> bool:
    """Classify a suite (object or IANA name) as weak per the paper.

    A suite is weak if it uses DES, 3DES or RC4, or is an EXPORT suite.
    """
    name = suite.name if isinstance(suite, CipherSuite) else str(suite)
    return any(marker in name for marker in _WEAK_MARKERS)


def advertises_weak(suites: Sequence[CipherSuite]) -> bool:
    """True if any advertised suite is weak (Table 8's per-connection test)."""
    return any(is_weak_suite(s) for s in suites)
