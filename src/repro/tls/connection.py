"""Record-trace synthesis for a simulated connection.

Given a handshake outcome and the app's intent (send data / leave the
connection idle), produce the wire-visible record sequence and TCP teardown
that the capture layer stores and the Section 4.2.2 classifiers consume.

The traces reproduce the confounders the paper had to handle:

* redundant connections that complete the handshake but never carry data;
* failed handshakes for non-pinning reasons (version/cipher mismatch);
* TLS 1.3 disguising alerts and handshake finished as application data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.tls.handshake import HandshakeOutcome
from repro.tls.records import (
    ContentType,
    Direction,
    TLSRecord,
    TLSVersion,
    TLS13_CLIENT_FINISHED_LEN,
    TLS13_ENCRYPTED_ALERT_LEN,
    interned,
)
from repro.util.rng import DeterministicRng

#: How the TCP connection ended, as visible in the capture.
TEARDOWN_RST = "rst"
TEARDOWN_FIN = "fin"
TEARDOWN_OPEN = "open"  # still open when the capture stopped

_TLS12_VISIBLE_ALERT_LEN = 31

# One shared record per fixed-shape record, one per length otherwise
# (see ``interned``).
_SERVER_ALERT = interned(
    ContentType.ALERT, Direction.SERVER_TO_CLIENT, ContentType.ALERT
)(7)
#: A client alert — a certificate rejection or an idle connection's
#: close_notify look alike on the wire.  TLS 1.3 disguises it as data.
_TLS13_CLIENT_ALERT = interned(
    ContentType.APPLICATION_DATA, Direction.CLIENT_TO_SERVER, ContentType.ALERT
)(TLS13_ENCRYPTED_ALERT_LEN)
_TLS12_CLIENT_ALERT = interned(
    ContentType.ALERT, Direction.CLIENT_TO_SERVER, ContentType.ALERT
)(_TLS12_VISIBLE_ALERT_LEN)
#: TLS 1.3's client Finished, disguised as application data.
_TLS13_CLIENT_FINISHED = interned(
    ContentType.APPLICATION_DATA,
    Direction.CLIENT_TO_SERVER,
    ContentType.HANDSHAKE,
)(TLS13_CLIENT_FINISHED_LEN)
_TLS12_CHANGE_CIPHER_SPEC = interned(
    ContentType.CHANGE_CIPHER_SPEC,
    Direction.CLIENT_TO_SERVER,
    ContentType.CHANGE_CIPHER_SPEC,
)(6)
_TLS12_CLIENT_FINISHED = interned(
    ContentType.HANDSHAKE, Direction.CLIENT_TO_SERVER, ContentType.HANDSHAKE
)(45)

_client_hello = interned(
    ContentType.HANDSHAKE, Direction.CLIENT_TO_SERVER, ContentType.HANDSHAKE
)
_server_hello = interned(
    ContentType.HANDSHAKE, Direction.SERVER_TO_CLIENT, ContentType.HANDSHAKE
)
_client_data = interned(
    ContentType.APPLICATION_DATA,
    Direction.CLIENT_TO_SERVER,
    ContentType.APPLICATION_DATA,
)
_server_data = interned(
    ContentType.APPLICATION_DATA,
    Direction.SERVER_TO_CLIENT,
    ContentType.APPLICATION_DATA,
)


@dataclass
class ConnectionTrace:
    """Wire-visible artefacts of one TCP/TLS connection."""

    records: List[TLSRecord] = field(default_factory=list)
    teardown: str = TEARDOWN_OPEN

    def client_app_data_records(self) -> List[TLSRecord]:
        return [
            r
            for r in self.records
            if r.direction is Direction.CLIENT_TO_SERVER
            and r.content_type is ContentType.APPLICATION_DATA
        ]

    def aborted(self) -> bool:
        return self.teardown in (TEARDOWN_RST, TEARDOWN_FIN)

    def __reduce__(self):
        # Unpickle through __init__, which keeps no separate __dict__.
        return ConnectionTrace, (self.records, self.teardown)


def _app_data_length(rng: DeterministicRng) -> int:
    """A plausible ciphertext length for a real application-data record."""
    length = 80 + int(rng.expovariate(1 / 400.0))
    return min(length, 16384)


def synthesize_trace(
    outcome: HandshakeOutcome,
    rng: DeterministicRng,
    *,
    client_payload_records: int = 0,
    server_payload_records: int = 0,
    closes_cleanly: bool = True,
) -> ConnectionTrace:
    """Build the record trace for one connection.

    Args:
        outcome: handshake result.
        rng: randomness for record sizes and abort styles.
        client_payload_records: application-data records the client intends
            to send if the handshake succeeds (0 = redundant/idle
            connection).
        server_payload_records: response records from the server.
        closes_cleanly: idle connections either FIN (True) or stay open at
            capture end (False); used connections always stay open here —
            keep-alive — unless the handshake failed.
    """
    trace = ConnectionTrace()
    records = trace.records

    # ClientHello / ServerHello+Certificate are always wire-visible
    # handshake records.
    records.append(_client_hello(512 + rng.randint(0, 64)))
    if outcome.failure_reason == "no_common_version":
        records.append(_SERVER_ALERT)
        trace.teardown = TEARDOWN_FIN
        return trace

    records.append(_server_hello(2800 + rng.randint(0, 1200)))

    if outcome.failure_reason == "no_common_cipher":
        records.append(_SERVER_ALERT)
        trace.teardown = TEARDOWN_FIN
        return trace

    is13 = outcome.version is TLSVersion.TLS13
    client_alert = _TLS13_CLIENT_ALERT if is13 else _TLS12_CLIENT_ALERT

    if outcome.client_alert is not None:
        # Certificate rejected: the client signals failure via a TLS alert
        # or a bare TCP reset — both happen in the wild (Section 4.2.2).
        if rng.chance(0.75):
            records.append(client_alert)
        trace.teardown = TEARDOWN_RST if rng.chance(0.5) else TEARDOWN_FIN
        return trace

    # Handshake completed.
    if is13:
        records.append(_TLS13_CLIENT_FINISHED)
    else:
        records.append(_TLS12_CHANGE_CIPHER_SPEC)
        records.append(_TLS12_CLIENT_FINISHED)

    if client_payload_records <= 0:
        # Redundant connection: established, never used.
        if closes_cleanly:
            records.append(client_alert)  # close_notify
            trace.teardown = TEARDOWN_FIN
        else:
            trace.teardown = TEARDOWN_OPEN
        return trace

    for _ in range(client_payload_records):
        records.append(_client_data(_app_data_length(rng)))
    for _ in range(server_payload_records):
        records.append(_server_data(_app_data_length(rng)))
    trace.teardown = TEARDOWN_OPEN
    return trace
