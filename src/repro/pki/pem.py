"""Loading certificates back out of PEM text.

The static analyzer recovers certificates from app packages as PEM blobs;
this module turns those blobs into :class:`ParsedCertificate` views.
"""

from __future__ import annotations

from typing import List

from repro.errors import CertificateError
from repro.pki.certificate import ParsedCertificate, parse_der
from repro.util.encoding import pem_unwrap


def load_pem_certificates(text: str) -> List[ParsedCertificate]:
    """Parse every certificate PEM block found in ``text``.

    Blocks that decode as base64 but are not canonical certificate payloads
    are skipped (apps embed all sorts of PEM-looking material); blocks with
    broken base64 raise.

    Raises:
        EncodingError: on malformed PEM armor.
    """
    certificates: List[ParsedCertificate] = []
    for der in pem_unwrap(text, label="CERTIFICATE"):
        try:
            certificates.append(parse_der(der))
        except CertificateError:
            continue
    return certificates
