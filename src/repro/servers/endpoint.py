"""TLS server endpoints.

One :class:`ServerEndpoint` per hostname: the served chain, the protocol
versions and ciphersuites the server accepts, and an owner label for party
attribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.pki.chain import CertificateChain
from repro.pki.keys import KeyPair
from repro.tls.ciphers import CipherSuite, MODERN_SUITES
from repro.tls.records import TLSVersion


@dataclass
class ServerEndpoint:
    """A TLS server for one hostname.

    Attributes:
        hostname: DNS name clients put in the SNI.
        chain: the certificate chain currently served.
        owner: organisation operating the endpoint (party attribution).
        supported_versions: accepted protocol versions.
        supported_suites: acceptable suites in server preference order.
        leaf_key: the key pair of the served leaf.
        pki_kind: ground truth — ``"default"``, ``"custom"`` or
            ``"self-signed"``.
    """

    hostname: str
    chain: CertificateChain
    owner: str
    supported_versions: Sequence[TLSVersion] = (
        TLSVersion.TLS12,
        TLSVersion.TLS13,
    )
    supported_suites: Sequence[CipherSuite] = MODERN_SUITES
    leaf_key: Optional[KeyPair] = None
    pki_kind: str = "default"
