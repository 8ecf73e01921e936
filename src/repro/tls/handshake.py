"""Simulated TLS handshake.

:func:`perform_handshake` negotiates version and ciphersuite between a
:class:`ClientProfile` and a server-side endpoint (any object exposing
``hostname``, ``chain``, ``supported_versions`` and ``supported_suites`` —
see :class:`repro.servers.endpoint.ServerEndpoint`), then runs the client's
validation policy over the served chain.

The outcome records everything the wire would reveal plus ground-truth
fields (validation failure reason) that only tests read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ChainValidationError
from repro.pki.chain import CertificateChain
from repro.tls.alerts import Alert, AlertDescription, alert_for_reason
from repro.tls.ciphers import CipherSuite, MODERN_SUITES
from repro.tls.policy import ValidationPolicy
from repro.tls.records import TLSVersion
from repro.util.simtime import Timestamp

_VERSION_ORDER = [
    TLSVersion.TLS10,
    TLSVersion.TLS11,
    TLSVersion.TLS12,
    TLSVersion.TLS13,
]


@dataclass
class ClientProfile:
    """The client half of a handshake.

    Attributes:
        sni: server name sent in the ClientHello (the field 99 % of the
            paper's flows carried, enabling destination attribution).
        policy: certificate validation policy.
        offered_versions: protocol versions offered, e.g. TLS 1.0–1.3.
        offered_suites: ciphersuites advertised.  Weak suites here are what
            Table 8 counts.
    """

    sni: str
    policy: ValidationPolicy
    offered_versions: Sequence[TLSVersion] = (
        TLSVersion.TLS12,
        TLSVersion.TLS13,
    )
    offered_suites: Sequence[CipherSuite] = MODERN_SUITES


@dataclass
class HandshakeOutcome:
    """Result of a simulated handshake.

    Attributes:
        success: True if the handshake completed (keys established).
        version: negotiated protocol version (None on negotiation failure).
        cipher: negotiated suite.
        served_chain: the chain the client saw (the real server's, or the
            proxy's forgery under MITM).
        client_alert: alert the client sent on rejection, if any.
        server_alert: alert the server sent (e.g. protocol_version).
        failure_reason: ground-truth machine-readable reason
            (``pin_mismatch``, ``untrusted_root``, ``no_common_version`` …);
            never read by detectors.
    """

    success: bool
    version: Optional[TLSVersion] = None
    cipher: Optional[CipherSuite] = None
    served_chain: Optional[CertificateChain] = None
    client_alert: Optional[Alert] = None
    server_alert: Optional[Alert] = None
    failure_reason: str = ""

    @property
    def rejected_certificate(self) -> bool:
        return self.client_alert is not None and self.client_alert.is_certificate_related()


def negotiate_version(
    client_versions: Sequence[TLSVersion], server_versions: Sequence[TLSVersion]
) -> Optional[TLSVersion]:
    """Highest protocol version both sides support."""
    common = set(client_versions) & set(server_versions)
    if not common:
        return None
    return max(common, key=_VERSION_ORDER.index)


def negotiate_cipher(
    version: TLSVersion,
    client_suites: Sequence[CipherSuite],
    server_suites: Sequence[CipherSuite],
) -> Optional[CipherSuite]:
    """Server-preference suite selection constrained by the version."""
    client_names = {s.name for s in client_suites}
    for suite in server_suites:
        if suite.name not in client_names:
            continue
        if version.is_tls13 and suite.min_version != "1.3":
            continue
        if not version.is_tls13 and suite.min_version == "1.3":
            continue
        return suite
    return None


def perform_handshake(
    client: ClientProfile,
    server,
    at_time: Timestamp,
    presented_chain: Optional[CertificateChain] = None,
) -> HandshakeOutcome:
    """Run a handshake and the client's certificate check.

    Args:
        client: client profile.
        server: endpoint (duck-typed; see module docstring).
        at_time: simulated time of the handshake.
        presented_chain: override the chain the client sees — this is how
            the MITM proxy injects its forgery.

    Returns:
        A :class:`HandshakeOutcome`; never raises for protocol-level
        failures (they are data, not errors, to the measurement).
    """
    version = negotiate_version(client.offered_versions, server.supported_versions)
    if version is None:
        return HandshakeOutcome(
            success=False,
            server_alert=Alert(AlertDescription.PROTOCOL_VERSION),
            failure_reason="no_common_version",
        )

    cipher = negotiate_cipher(version, client.offered_suites, server.supported_suites)
    if cipher is None:
        return HandshakeOutcome(
            success=False,
            version=version,
            server_alert=Alert(AlertDescription.HANDSHAKE_FAILURE),
            failure_reason="no_common_cipher",
        )

    chain = presented_chain if presented_chain is not None else server.chain
    try:
        client.policy.evaluate(chain, client.sni, at_time)
    except ChainValidationError as exc:
        return HandshakeOutcome(
            success=False,
            version=version,
            cipher=cipher,
            served_chain=chain,
            client_alert=alert_for_reason(exc.reason),
            failure_reason=exc.reason,
        )

    return HandshakeOutcome(
        success=True, version=version, cipher=cipher, served_chain=chain
    )
