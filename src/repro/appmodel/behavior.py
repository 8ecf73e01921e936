"""App network behaviour — what the runtime does in its first seconds.

Dynamic analysis launches each app cold, with no interaction, and records
whatever traffic it produces in a sleep window (30 s by default, after the
paper's calibration in Section 4.2.1).  :class:`NetworkBehavior` describes
that traffic: destinations, start offsets, connection counts (including
redundant connections that are opened but never used), payloads and the
PII they carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.netsim.flow import Payload


@dataclass
class DestinationUsage:
    """The app's traffic to one destination during a cold start.

    Attributes:
        hostname: destination (and SNI value).
        start_offset_s: seconds after launch of the first connection —
            which is what makes longer sleep windows observe more
            handshakes (Section 4.2.1's 15/30/60 s calibration).
        used_connections: connections that carry application data.
        redundant_connections: connections established and left idle
            (HTTP/2 connection racing, pre-warming) — the confounder the
            used-connection heuristic must not misread.
        payload_fields: key→value body fields per request; PII values use
            the device-identifier placeholders from
            :mod:`repro.core.pii.types`.
        source: ``"first-party"`` or the SDK name that owns the traffic.
        weak_ciphers: this destination's client config advertises weak
            suites (drives Table 8).
        requires_interaction: only triggered by user interaction (login,
            checkout).  The study performs none (§4.2.1), so this traffic
            is invisible to it — the §5.6 "Limited App Interaction"
            blind spot and the §5.7 future-work target.
    """

    hostname: str
    start_offset_s: float = 0.0
    used_connections: int = 1
    redundant_connections: int = 0
    payload_fields: Tuple[Tuple[str, str], ...] = ()
    source: str = "first-party"
    weak_ciphers: bool = False
    requires_interaction: bool = False

    def payload(self, substitute: Optional[Callable[[str], str]] = None) -> Payload:
        """The request every used connection sends.

        Args:
            substitute: applied to every field value, e.g. the device's
                placeholder substitution; None keeps the template as is.
        """
        fields = self.payload_fields
        if substitute is not None:
            fields = tuple((k, substitute(v)) for k, v in fields)
        return Payload(method="POST", path="/v1/events", fields=fields)

    def payloads(self) -> List[Payload]:
        """One payload per used connection."""
        return [self.payload()] * self.used_connections

    def starts_within(self, window_s: float) -> bool:
        return self.start_offset_s <= window_s

    def total_connections(self) -> int:
        return self.used_connections + self.redundant_connections


@dataclass
class NetworkBehavior:
    """Everything the app's runtime does on the network at cold start."""

    usages: List[DestinationUsage] = field(default_factory=list)

    def usages_within(
        self, window_s: float, with_interaction: bool = False
    ) -> List[DestinationUsage]:
        """Destinations whose first connection starts inside the window.

        Args:
            window_s: the capture window.
            with_interaction: include interaction-gated destinations —
                what a harness that logs in and taps around would see.
        """
        return [
            u
            for u in self.usages
            if u.starts_within(window_s)
            and (with_interaction or not u.requires_interaction)
        ]

    def destinations(self) -> List[str]:
        return [u.hostname for u in self.usages]

    def usage_for(self, hostname: str) -> Optional[DestinationUsage]:
        hostname = hostname.lower()
        for usage in self.usages:
            if usage.hostname.lower() == hostname:
                return usage
        return None

    def expected_handshakes(self, window_s: float) -> int:
        """Handshake count a capture window of ``window_s`` would observe."""
        return sum(u.total_connections() for u in self.usages_within(window_s))
