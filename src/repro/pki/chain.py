"""Certificate chains as served in a TLS handshake.

The wire order is leaf-first (RFC 8446 §4.4.2); the paper describes chains
root-first when talking about trust ("signatures from the root (first) to
the leaf (last)").  :class:`CertificateChain` stores the wire order and
provides both views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.errors import CertificateError
from repro.pki.certificate import Certificate


@dataclass(frozen=True)
class CertificateChain:
    """An ordered list of certificates, leaf first.

    A chain may or may not include the root; real servers usually omit it
    (the client finds the root in its store by issuer name).
    """

    certificates: Tuple[Certificate, ...]

    def __post_init__(self):
        if not self.certificates:
            raise CertificateError("a certificate chain cannot be empty")

    @classmethod
    def of(cls, *certs: Certificate) -> "CertificateChain":
        return cls(tuple(certs))

    # -- views ---------------------------------------------------------------

    @property
    def leaf(self) -> Certificate:
        return self.certificates[0]

    @property
    def intermediates(self) -> Tuple[Certificate, ...]:
        """Everything between the leaf and the terminal certificate."""
        return self.certificates[1:-1] if len(self.certificates) > 2 else ()

    @property
    def terminal(self) -> Certificate:
        """The last certificate served (a root if the server included it)."""
        return self.certificates[-1]

    def __len__(self) -> int:
        return len(self.certificates)

    def __iter__(self) -> Iterator[Certificate]:
        return iter(self.certificates)

    def __contains__(self, cert: Certificate) -> bool:
        return cert in self.certificates

    # -- structure checks ------------------------------------------------------

    def is_single_self_signed(self) -> bool:
        """True for the Section 5.3.1 oddity: a lone self-signed cert
        served instead of a chain."""
        return len(self.certificates) == 1 and self.leaf.is_self_signed()

    def links_consistent(self) -> bool:
        """True if each certificate's issuer names the next one's subject."""
        for child, parent in zip(self.certificates, self.certificates[1:]):
            if child.issuer != parent.subject:
                return False
        return True

    def contains_spki(self, pin: str) -> bool:
        """True if any certificate's key matches the given pin string."""
        algorithm = pin.split("/", 1)[0]
        return any(cert.spki_pin(algorithm=algorithm) == pin for cert in self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = " <- ".join(c.subject.common_name for c in self.certificates)
        return f"CertificateChain({names})"
