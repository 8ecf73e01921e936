"""TLS alerts.

Pinned clients that reject a forged chain send ``bad_certificate`` or
``certificate_unknown`` alerts (or just reset the TCP connection); the
paper notes such signals also occur for unrelated reasons, e.g.
``protocol_version`` alerts — both are modelled so the detector faces the
same confounders.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class AlertDescription(enum.Enum):
    """The subset of RFC 8446 alert descriptions the simulation emits."""

    CLOSE_NOTIFY = 0
    UNEXPECTED_MESSAGE = 10
    BAD_RECORD_MAC = 20
    HANDSHAKE_FAILURE = 40
    BAD_CERTIFICATE = 42
    UNSUPPORTED_CERTIFICATE = 43
    CERTIFICATE_REVOKED = 44
    CERTIFICATE_EXPIRED = 45
    CERTIFICATE_UNKNOWN = 46
    ILLEGAL_PARAMETER = 47
    UNKNOWN_CA = 48
    PROTOCOL_VERSION = 70
    INSUFFICIENT_SECURITY = 71
    INTERNAL_ERROR = 80


class AlertLevel(enum.Enum):
    WARNING = 1
    FATAL = 2


@dataclass(frozen=True)
class Alert:
    """A TLS alert message."""

    description: AlertDescription
    level: AlertLevel = AlertLevel.FATAL

    def is_certificate_related(self) -> bool:
        """True for alerts a failed certificate check would produce."""
        return self.description in (
            AlertDescription.BAD_CERTIFICATE,
            AlertDescription.UNSUPPORTED_CERTIFICATE,
            AlertDescription.CERTIFICATE_REVOKED,
            AlertDescription.CERTIFICATE_EXPIRED,
            AlertDescription.CERTIFICATE_UNKNOWN,
            AlertDescription.UNKNOWN_CA,
        )


# Mapping from chain-validation failure reasons to the alert a real client
# stack would send.
ALERT_FOR_REASON = {
    "expired": AlertDescription.CERTIFICATE_EXPIRED,
    "not_yet_valid": AlertDescription.CERTIFICATE_EXPIRED,
    "untrusted_root": AlertDescription.UNKNOWN_CA,
    "bad_signature": AlertDescription.BAD_CERTIFICATE,
    "bad_link": AlertDescription.BAD_CERTIFICATE,
    "not_ca": AlertDescription.BAD_CERTIFICATE,
    "hostname_mismatch": AlertDescription.CERTIFICATE_UNKNOWN,
    "pin_mismatch": AlertDescription.BAD_CERTIFICATE,
}


def alert_for_reason(reason: str) -> Alert:
    """The alert a client sends after a validation failure."""
    description = ALERT_FOR_REASON.get(reason, AlertDescription.BAD_CERTIFICATE)
    return Alert(description)
