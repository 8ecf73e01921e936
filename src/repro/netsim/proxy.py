"""The interception proxy (mitmproxy stand-in).

The proxy owns a CA certificate.  For each intercepted hostname it forges a
leaf chain on the fly, signed by that CA, mirroring mitmproxy's behaviour.
Devices in the testbed have the proxy CA installed in their system store,
so clients doing *default* validation accept the forgery and the proxy can
read their traffic; pinned clients reject it.
"""

from __future__ import annotations

from typing import Dict

from repro.pki.authority import CertificateAuthority
from repro.pki.certificate import Certificate
from repro.pki.chain import CertificateChain
from repro.servers.endpoint import ServerEndpoint
from repro.util.rng import DeterministicRng
from repro.util.simtime import STUDY_START


class MITMProxy:
    """Forges per-hostname chains under its own CA."""

    def __init__(self, rng: DeterministicRng, ca_name: str = "mitmproxy"):
        self._rng = rng
        self.authority = CertificateAuthority.self_signed_root(
            ca_name,
            rng.child("proxy-ca"),
            not_before=STUDY_START.plus_years(-1),
            lifetime_years=3.0,
        )
        self._forged: Dict[str, CertificateChain] = {}

    @property
    def ca_certificate(self) -> Certificate:
        """The CA certificate operators install on test devices."""
        return self.authority.certificate

    def forge_chain(self, endpoint: ServerEndpoint) -> CertificateChain:
        """The chain the client sees when this proxy intercepts.

        mitmproxy copies the upstream leaf's names onto a fresh key signed
        by its CA; the forgery is cached per hostname.

        The forged certificate is a pure function of the proxy seed and the
        hostname (key material and serial derive from a per-hostname child
        stream, not the CA's issuance counter), so two proxy instances with
        the same seed forge identical chains regardless of how many other
        hostnames each has intercepted.  The execution engine depends on
        this: a retried or solo re-run app must still see bit-for-bit the
        forgeries it saw inside its whole unit.
        """
        hostname = endpoint.hostname
        cached = self._forged.get(hostname)
        if cached is not None:
            return cached
        upstream_leaf = endpoint.chain.leaf
        san = upstream_leaf.san if upstream_leaf.san else (hostname,)
        leaf, _ = self.authority.issue(
            upstream_leaf.subject.common_name,
            san=san,
            not_before=STUDY_START.plus_days(-1),
            lifetime_days=365,
            rng=self._rng.child("forge", hostname),
            serial=self.authority.stateless_serial("forge", hostname),
        )
        chain = CertificateChain.of(leaf, self.authority.certificate)
        self._forged[hostname] = chain
        return chain

    def forged_count(self) -> int:
        return len(self._forged)
