"""ripgrep/radare2-style content scans (Section 4.1.2).

Three detection channels, exactly as the paper describes:

* files with certificate extensions (``.der .pem .crt .cert .cer``),
  parsed as PEM or base64-DER;
* ``-----BEGIN CERTIFICATE-----`` delimited blobs anywhere in text files;
* SPKI-hash tokens matching ``sha(1|256)/[a-zA-Z0-9+/=]{28,64}`` — the
  28–64 length range spans the digest encodings the paper greps for:
  base64 (28 chars for SHA-1, 44 for SHA-256) and hex (40 and 64), hex
  being a subset of the base64 character class;
* a strings pass over native libraries / Mach-O executables (libradare2
  in the paper) applying the same regexes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro.appmodel.filetree import FileNode, FileTree
from repro.errors import CertificateError, EncodingError
from repro.pki.certificate import ParsedCertificate, parse_der
from repro.util.encoding import b64decode

CERT_EXTENSIONS: Tuple[str, ...] = (".der", ".pem", ".crt", ".cert", ".cer")

#: The paper's hash regex, with boundary anchoring.  Unanchored, a pin
#: token embedded in a longer base64 run would match only its first 64
#: characters and surface a truncated (wrong) digest; the lookarounds
#: reject any token whose digest run extends past the match on either
#: side, so only cleanly delimited tokens are reported.  ``=`` stays out
#: of the *lookbehind* class: base64 padding terminates a token, so a
#: ``=`` before ``sha`` is a separator (``pins=sha256/...``), never the
#: tail of a run the token belongs to.
HASH_PATTERN = re.compile(
    r"(?<![a-zA-Z0-9+/])sha(1|256)/[a-zA-Z0-9+/=]{28,64}(?![a-zA-Z0-9+/=])"
)

PEM_DELIMITER_PATTERN = re.compile(r"-----BEGIN CERTIFICATE-----")


@dataclass(frozen=True)
class CertificateFinding:
    """A certificate recovered from a package.

    Attributes:
        path: file path inside the package.
        certificate: parsed view.
        channel: which detection channel found it (``extension``, ``pem``).
    """

    path: str
    certificate: ParsedCertificate
    channel: str


@dataclass(frozen=True)
class PinFinding:
    """An SPKI pin string found in a package."""

    path: str
    pin: str
    channel: str  # "text" or "native-strings"

    @property
    def algorithm(self) -> str:
        return self.pin.split("/", 1)[0]

    @property
    def digest(self) -> str:
        return self.pin.split("/", 1)[1]


@dataclass
class ScanResult:
    """Everything the content scan surfaced for one package."""

    certificates: List[CertificateFinding] = field(default_factory=list)
    pins: List[PinFinding] = field(default_factory=list)

    def has_material(self) -> bool:
        return bool(self.certificates or self.pins)

    def unique_pins(self) -> Set[str]:
        return {f.pin for f in self.pins}

    def finding_paths(self) -> Set[str]:
        return {f.path for f in self.certificates} | {f.path for f in self.pins}


def _parse_certificate_file(node: FileNode) -> List[ParsedCertificate]:
    """Recover certificates from an extension-matched file.

    PEM-armoured content parses directly; otherwise the content is tried
    as base64 DER (the ``.der``/``.cer`` convention).  Unparseable content
    yields nothing — apps ship all kinds of junk under these extensions.
    """
    from repro.pki.pem import load_pem_certificates

    content = node.content
    if "-----BEGIN CERTIFICATE-----" in content:
        try:
            return load_pem_certificates(content)
        except EncodingError:
            return []
    try:
        decoded = b64decode("".join(content.split()))
    except EncodingError:
        return []
    # Some ``.cer`` files are base64-wrapped PEM text; others are bare DER.
    try:
        text = decoded.decode("utf-8")
    except UnicodeDecodeError:
        text = ""
    if "-----BEGIN CERTIFICATE-----" in text:
        try:
            return load_pem_certificates(text)
        except EncodingError:
            return []
    try:
        return [parse_der(decoded)]
    except CertificateError:
        return []


def scan_tree(tree: FileTree, include_native: bool = True) -> ScanResult:
    """Run all detection channels over a package tree.

    Args:
        tree: decompiled/decrypted package contents.
        include_native: also run the radare2-style strings pass over
            binary files (ablations turn this off).
    """
    # Loaded by the first scan, not by a run served from the result store.
    from repro.pki.pem import load_pem_certificates

    result = ScanResult()
    # Dedup on (path, subject, serial) as a tuple — concatenating subject
    # and serial would make ("A", "BC") collide with ("AB", "C") and drop
    # a distinct certificate.
    seen_cert_fingerprints: Set[Tuple[str, str, str]] = set()

    # Channel 1: certificate file extensions.
    for node in tree.with_extensions(CERT_EXTENSIONS):
        for cert in _parse_certificate_file(node):
            key = (node.path, cert.subject, cert.serial)
            if key not in seen_cert_fingerprints:
                seen_cert_fingerprints.add(key)
                result.certificates.append(
                    CertificateFinding(node.path, cert, "extension")
                )

    # Channel 2: PEM delimiters in any text file.
    for node, _ in tree.grep(PEM_DELIMITER_PATTERN, include_binary=False):
        if node.extension in CERT_EXTENSIONS:
            continue  # already covered by channel 1
        try:
            for cert in load_pem_certificates(node.content):
                key = (node.path, cert.subject, cert.serial)
                if key not in seen_cert_fingerprints:
                    seen_cert_fingerprints.add(key)
                    result.certificates.append(
                        CertificateFinding(node.path, cert, "pem")
                    )
        except EncodingError:
            continue

    # Channel 3: SPKI hash tokens in text files.
    seen_pins: Set[Tuple[str, str]] = set()
    for node, match in tree.grep(HASH_PATTERN, include_binary=False):
        key = (node.path, match)
        if key not in seen_pins:
            seen_pins.add(key)
            result.pins.append(PinFinding(node.path, match, "text"))

    # Channel 4: native-binary strings pass (both regexes).
    if include_native:
        for node in tree.walk():
            if not node.binary:
                continue
            for match in HASH_PATTERN.finditer(node.content):
                key = (node.path, match.group(0))
                if key not in seen_pins:
                    seen_pins.add(key)
                    result.pins.append(
                        PinFinding(node.path, match.group(0), "native-strings")
                    )
            if PEM_DELIMITER_PATTERN.search(node.content):
                try:
                    for cert in load_pem_certificates(node.content):
                        key = (node.path, cert.subject, cert.serial)
                        if key not in seen_cert_fingerprints:
                            seen_cert_fingerprints.add(key)
                            result.certificates.append(
                                CertificateFinding(node.path, cert, "native-strings")
                            )
                except EncodingError:
                    pass
    return result
