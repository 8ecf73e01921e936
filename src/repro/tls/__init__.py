"""Simulated TLS stack.

Models the parts of TLS that the paper's dynamic analysis observes on the
wire: protocol version negotiation, ciphersuite advertisement (including the
weak suites Table 8 counts), SNI, the certificate message, alerts, and the
record-level traffic patterns that drive the used/failed-connection
heuristics of Section 4.2.2 — in particular TLS 1.3's disguising of all
encrypted records as "Encrypted Application Data".

Client-side certificate checking is pluggable via
:mod:`repro.tls.policy` — the mechanism apps use to implement (or subvert)
pinning.
"""

from repro.util.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "Alert": "alerts",
        "AlertDescription": "alerts",
        "CipherSuite": "ciphers",
        "MODERN_SUITES": "ciphers",
        "WEAK_SUITES": "ciphers",
        "is_weak_suite": "ciphers",
        "ClientProfile": "handshake",
        "HandshakeOutcome": "handshake",
        "perform_handshake": "handshake",
        "CompositePolicy": "policy",
        "NSCPinPolicy": "policy",
        "PinnedCertificatePolicy": "policy",
        "SpkiPinPolicy": "policy",
        "SystemValidationPolicy": "policy",
        "TrustAllPolicy": "policy",
        "ValidationPolicy": "policy",
        "ContentType": "records",
        "Direction": "records",
        "TLSRecord": "records",
        "TLSVersion": "records",
    },
)

__all__ = [
    "Alert",
    "AlertDescription",
    "CipherSuite",
    "ClientProfile",
    "CompositePolicy",
    "ContentType",
    "Direction",
    "HandshakeOutcome",
    "MODERN_SUITES",
    "NSCPinPolicy",
    "PinnedCertificatePolicy",
    "SpkiPinPolicy",
    "SystemValidationPolicy",
    "TLSRecord",
    "TLSVersion",
    "TrustAllPolicy",
    "ValidationPolicy",
    "WEAK_SUITES",
    "is_weak_suite",
    "perform_handshake",
]
