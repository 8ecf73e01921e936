"""Certificates and distinguished names.

A :class:`Certificate` carries the fields the paper's analyses observe:
subject and issuer names, subject-alternative names, validity window, the
basic-constraints CA flag, the public key (for SPKI pinning) and a simulated
signature.  ``to_der()`` produces a canonical byte encoding used for
whole-certificate fingerprints and for embedding PEM blobs into app
packages.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

from repro.errors import CertificateError
from repro.pki.keys import KeyPair
from repro.util.encoding import pem_wrap
from repro.util.simtime import Timestamp


@dataclass(frozen=True)
class DistinguishedName:
    """An X.500-style name, reduced to the fields the study compares on.

    The paper matches certificates between static and dynamic data "in terms
    of the Common Name" (Section 5.3.2); equality on this dataclass gives the
    stricter full-DN comparison and :attr:`common_name` the paper's one.
    """

    common_name: str
    organization: str = ""
    country: str = ""

    def render(self) -> str:
        """RFC-4514-ish single-line rendering."""
        parts = [f"CN={self.common_name}"]
        if self.organization:
            parts.append(f"O={self.organization}")
        if self.country:
            parts.append(f"C={self.country}")
        return ", ".join(parts)

    def __str__(self) -> str:  # pragma: no cover - display only
        return self.render()


def _tbs_encoding(
    subject: DistinguishedName,
    issuer: DistinguishedName,
    serial: str,
    not_before: Timestamp,
    not_after: Timestamp,
    san: Tuple[str, ...],
    is_ca: bool,
    key: KeyPair,
) -> bytes:
    """The canonical to-be-signed encoding of a certificate's fields."""
    fields = [
        subject.render(),
        issuer.render(),
        serial,
        str(not_before.unix),
        str(not_after.unix),
        ",".join(san),
        "CA" if is_ca else "EE",
        key.public_bytes.hex(),
    ]
    return "\x1e".join(fields).encode("utf-8")


@dataclass(frozen=True)
class Certificate:
    """A simulated X.509 certificate.

    Attributes:
        subject: who the certificate identifies.
        issuer: who signed it (== subject for self-signed certificates).
        serial: issuer-unique serial number string.
        not_before / not_after: validity window in simulated time.
        key: the subject's key pair (its ``public_bytes`` are the SPKI).
        san: subject alternative names; hostname matching uses these first
            and falls back to the subject CN (as legacy validators do).
        is_ca: basic-constraints CA flag.
        signature: simulated signature over :meth:`tbs_bytes` by the issuer
            key.  Self-signed certificates are signed by their own key.
        issuer_key_id: key id of the signing key, so a validator can tell
            *which* key must verify the signature.
    """

    subject: DistinguishedName
    issuer: DistinguishedName
    serial: str
    not_before: Timestamp
    not_after: Timestamp
    key: KeyPair
    san: Tuple[str, ...] = ()
    is_ca: bool = False
    signature: bytes = b""
    issuer_key_id: str = ""

    def __post_init__(self):
        if self.not_after.unix <= self.not_before.unix:
            raise CertificateError(
                f"certificate {self.subject.common_name!r} has an empty "
                f"validity window"
            )

    # -- identity ----------------------------------------------------------

    @property
    def common_name(self) -> str:
        return self.subject.common_name

    def is_self_signed(self) -> bool:
        """True if subject == issuer and the cert verifies under its own key."""
        return self.subject == self.issuer and self.key.verify(
            self.tbs_bytes(), self.signature
        )

    @classmethod
    def signed_by(
        cls,
        signer: KeyPair,
        *,
        subject: DistinguishedName,
        issuer: DistinguishedName,
        serial: str,
        not_before: Timestamp,
        not_after: Timestamp,
        key: KeyPair,
        san: Tuple[str, ...] = (),
        is_ca: bool = False,
    ) -> "Certificate":
        """Issue a certificate signed by ``signer`` in one construction."""
        tbs = _tbs_encoding(subject, issuer, serial, not_before, not_after, san, is_ca, key)
        return cls(
            subject=subject,
            issuer=issuer,
            serial=serial,
            not_before=not_before,
            not_after=not_after,
            key=key,
            san=san,
            is_ca=is_ca,
            signature=signer.sign(tbs),
            issuer_key_id=signer.key_id,
        )

    def tbs_bytes(self) -> bytes:
        """The canonical to-be-signed encoding."""
        return _tbs_encoding(
            self.subject,
            self.issuer,
            self.serial,
            self.not_before,
            self.not_after,
            self.san,
            self.is_ca,
            self.key,
        )

    def to_der(self) -> bytes:
        """Canonical full encoding (tbs + signature), the DER stand-in."""
        return self.tbs_bytes() + b"\x1f" + self.signature

    def to_pem(self) -> str:
        """PEM-armoured encoding, greppable by the static analyzer."""
        return pem_wrap(self.to_der(), label="CERTIFICATE")

    def fingerprint_sha256(self) -> str:
        """Hex SHA-256 fingerprint of the full encoding."""
        return hashlib.sha256(self.to_der()).hexdigest()

    def spki_pin(self, algorithm: str = "sha256") -> str:
        """HPKP-style pin string for this certificate's public key."""
        return self.key.pin(algorithm=algorithm)

    # -- checks ------------------------------------------------------------

    def valid_at(self, when: Timestamp) -> bool:
        """True if ``when`` falls inside the validity window."""
        return self.not_before.unix <= when.unix <= self.not_after.unix

    def is_expired(self, when: Timestamp) -> bool:
        return when.unix > self.not_after.unix

    def validity_years(self) -> float:
        """Length of the validity window in years (Section 5.3.1 reports
        27- and 10-year self-signed certificates)."""
        return self.not_before.days_until(self.not_after) / 365.0

    def matches_hostname(self, hostname: str) -> bool:
        """Delegates to :func:`repro.pki.validation.hostname_matches`."""
        from repro.pki.validation import hostname_matches

        names = self.san if self.san else (self.subject.common_name,)
        return any(hostname_matches(pattern, hostname) for pattern in names)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "CA" if self.is_ca else "leaf"
        return f"Certificate({self.subject.common_name!r}, {kind}, serial={self.serial})"


def parse_der(der: bytes) -> "ParsedCertificate":
    """Parse the canonical encoding back into a lightweight view.

    The static analyzer uses this to inspect certificates recovered from app
    packages without needing the original :class:`Certificate` object.

    Raises:
        CertificateError: if the payload is not a canonical encoding.
    """
    try:
        # Split on the *first* separator: the tbs side is structured UTF-8
        # text that never contains 0x1f, but the signature is arbitrary
        # bytes that may — rpartition would split inside such a signature
        # and silently corrupt the spki field.
        tbs, sep, signature = der.partition(b"\x1f")
        if not sep:
            raise ValueError("missing tbs/signature separator")
        fields = tbs.decode("utf-8").split("\x1e")
        subject, issuer, serial, nb, na, san, ca_flag, spki_hex = fields
        return ParsedCertificate(
            subject=subject,
            issuer=issuer,
            serial=serial,
            not_before=Timestamp(int(nb)),
            not_after=Timestamp(int(na)),
            san=tuple(s for s in san.split(",") if s),
            is_ca=(ca_flag == "CA"),
            spki_bytes=bytes.fromhex(spki_hex),
            signature=signature,
        )
    except (ValueError, UnicodeDecodeError) as exc:
        raise CertificateError("payload is not a canonical certificate") from exc


@dataclass(frozen=True)
class ParsedCertificate:
    """A certificate recovered from bytes (e.g. a PEM blob in an app)."""

    subject: str
    issuer: str
    serial: str
    not_before: Timestamp
    not_after: Timestamp
    san: Tuple[str, ...]
    is_ca: bool
    spki_bytes: bytes
    signature: bytes

    @property
    def common_name(self) -> str:
        """Extract the CN attribute from the rendered subject."""
        for part in self.subject.split(","):
            part = part.strip()
            if part.startswith("CN="):
                return part[3:]
        return self.subject

    def spki_sha256(self) -> bytes:
        return hashlib.sha256(self.spki_bytes).digest()
