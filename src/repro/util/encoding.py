"""Encoding helpers shared by the PKI layer and the static analyzer.

These mirror the encodings the paper's static analysis searches for:
base64 SPKI digests (``sha256/...`` pins) and PEM-armoured
certificate blobs delimited by ``-----BEGIN CERTIFICATE-----``.
"""

from __future__ import annotations

import base64
import binascii
from typing import List

from repro.errors import EncodingError

PEM_BEGIN = "-----BEGIN {label}-----"
PEM_END = "-----END {label}-----"


def b64encode(data: bytes) -> str:
    """Standard base64 with padding."""
    return base64.b64encode(data).decode("ascii")


def b64decode(text: str) -> bytes:
    """Decode base64, tolerating missing padding."""
    padded = text + "=" * (-len(text) % 4)
    try:
        # binascii.Error (a ValueError subclass) is what b64decode raises
        # on bad input; anything else — e.g. TypeError from passing bytes
        # — is a caller bug and must propagate.
        return base64.b64decode(padded, validate=True)
    except binascii.Error as exc:
        raise EncodingError(f"invalid base64 payload: {text[:32]!r}...") from exc


def pem_wrap(der: bytes, label: str = "CERTIFICATE", width: int = 64) -> str:
    """Armor a DER-like payload into a PEM block.

    Args:
        der: raw payload bytes.
        label: PEM label (``CERTIFICATE``, ``PUBLIC KEY``...).
        width: line-wrap width for the base64 body.
    """
    body = b64encode(der)
    lines = [body[i : i + width] for i in range(0, len(body), width)]
    return "\n".join(
        [PEM_BEGIN.format(label=label), *lines, PEM_END.format(label=label)]
    )


def pem_unwrap(text: str, label: str = "CERTIFICATE") -> List[bytes]:
    """Extract every PEM block with the given label from ``text``.

    Returns:
        The decoded payload of each block, in order of appearance.

    Raises:
        EncodingError: if a block's body is not valid base64.
    """
    begin = PEM_BEGIN.format(label=label)
    end = PEM_END.format(label=label)
    blocks: List[bytes] = []
    cursor = 0
    while True:
        start = text.find(begin, cursor)
        if start < 0:
            break
        stop = text.find(end, start)
        if stop < 0:
            raise EncodingError("unterminated PEM block")
        body = text[start + len(begin) : stop]
        blocks.append(b64decode("".join(body.split())))
        cursor = stop + len(end)
    return blocks
