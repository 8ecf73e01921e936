"""TLS record-level trace model.

The dynamic detector never sees plaintext — it sees record sequences.  Two
facts from Section 4.2.2 drive the model:

* **TLS 1.2 and below**: application data travels in records whose content
  type is visibly ``application_data``; alerts are visibly ``alert``.
  "Presence of any Encrypted Application Data packets" ⇒ the connection was
  used.
* **TLS 1.3**: every post-ServerHello encrypted record — handshake
  finished, alerts, data — is disguised as ``application_data``.  The
  heuristics then are (1) more than two client "application data" records,
  or (2) a second client record whose length differs from an encrypted
  alert's.

Record lengths are therefore first-class: :data:`TLS13_ENCRYPTED_ALERT_LEN`
is the give-away length of a disguised alert.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple


class TLSVersion(enum.Enum):
    """Negotiable protocol versions."""

    TLS10 = "1.0"
    TLS11 = "1.1"
    TLS12 = "1.2"
    TLS13 = "1.3"

    @property
    def is_tls13(self) -> bool:
        return self is TLSVersion.TLS13

    def __str__(self) -> str:  # pragma: no cover - display only
        return f"TLS {self.value}"


class ContentType(enum.Enum):
    """Wire-visible record content types."""

    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23


class Direction(enum.Enum):
    CLIENT_TO_SERVER = "c2s"
    SERVER_TO_CLIENT = "s2c"


# A TLS 1.3 encrypted alert: 2 bytes alert + 1 byte inner type + 16 byte tag
# + 5 byte record header = 24 bytes of ciphertext, 19 of plaintext structure.
TLS13_ENCRYPTED_ALERT_LEN = 24

# A TLS 1.3 client Finished: 32-byte verify_data + type + tag + header.
TLS13_CLIENT_FINISHED_LEN = 53


@dataclass(frozen=True)
class TLSRecord:
    """One TLS record as seen on the wire.

    Attributes:
        content_type: wire-visible type.  For TLS 1.3 encrypted records this
            is always ``APPLICATION_DATA`` regardless of the inner type.
        direction: who sent it.
        length: ciphertext length in bytes.
        inner_type: ground-truth inner content type; carried for tests and
            ablations, **never** read by the detector (which must work from
            wire-visible fields only).
    """

    content_type: ContentType
    direction: Direction
    length: int
    inner_type: ContentType = ContentType.APPLICATION_DATA

    @property
    def wire_visible_application_data(self) -> bool:
        return self.content_type is ContentType.APPLICATION_DATA

    def __reduce__(self):
        # Unpickle into the shared instance of this value (see interned).
        # ``_value_`` is a plain attribute; ``value`` is a slower property.
        return _shared_record, (
            self.content_type._value_,
            self.direction._value_,
            self.length,
            self.inner_type._value_,
        )


#: Record factories by (content type, direction, inner type) value.
_FACTORIES: Dict[Tuple[int, str, int], Callable[[int], TLSRecord]] = {}


def interned(
    content_type: ContentType, direction: Direction, inner_type: ContentType
) -> Callable[[int], TLSRecord]:
    """The length -> record factory of one record shape, one instance per
    length.

    Records are frozen, so traces share them: hellos and application data
    vary in length, but only over a few thousand values across a whole
    study.  Every caller asking for a shape gets the same factory, and an
    unpickled record comes from it too, so a record decoded from the
    result store is the very instance a computing run would hold.
    """
    key = (content_type.value, direction.value, inner_type.value)
    factory = _FACTORIES.get(key)
    if factory is None:

        @lru_cache(maxsize=None)
        def factory(length: int) -> TLSRecord:
            return TLSRecord(content_type, direction, length, inner_type)

        _FACTORIES[key] = factory
    return factory


def _shared_record(
    content_type: int, direction: str, length: int, inner_type: int
) -> TLSRecord:
    """Unpickle a record as the shared instance of its value."""
    factory = _FACTORIES.get((content_type, direction, inner_type))
    if factory is None:
        factory = interned(
            ContentType(content_type), Direction(direction), ContentType(inner_type)
        )
    return factory(length)


def encrypted_application_data(
    records: Sequence[TLSRecord], direction: Direction = Direction.CLIENT_TO_SERVER
) -> List[TLSRecord]:
    """Wire-visible application-data records in one direction."""
    return [
        r
        for r in records
        if r.direction is direction and r.wire_visible_application_data
    ]
