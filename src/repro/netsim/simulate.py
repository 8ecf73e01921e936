"""Connection-level simulation: one app connection → one flow record.

:func:`simulate_flow` composes the layers: the (optional) proxy forges a
chain, the TLS handshake runs with the client's validation policy, the
record trace is synthesized, and the result is packaged as a
:class:`FlowRecord` ready for capture.

A :class:`Destination` carries what every connection from one client to one
server shares, so a caller opening many connections to the same host builds
it once.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.netsim.flow import FlowRecord, Payload
from repro.netsim.proxy import MITMProxy
from repro.servers.endpoint import ServerEndpoint
from repro.tls.connection import (
    ConnectionTrace,
    TEARDOWN_RST,
    synthesize_trace,
)
from repro.tls.fingerprint import ja3_fingerprint
from repro.tls.handshake import ClientProfile, HandshakeOutcome, perform_handshake
from repro.tls.records import ContentType, Direction, interned
from repro.util.rng import DeterministicRng
from repro.util.simtime import Timestamp

#: The ClientHello a server reset cut short.
_RESET_CLIENT_HELLO = interned(
    ContentType.HANDSHAKE, Direction.CLIENT_TO_SERVER, ContentType.HANDSHAKE
)(512)
#: A server-side failure unrelated to TLS: no handshake took place.
_TRANSIENT_FAILURE = HandshakeOutcome(success=False, failure_reason="transient")


class Destination:
    """One client's connections to one server, and what they share.

    Args:
        client: the app's client profile for this destination.
        endpoint: the server.
        proxy: interception proxy, or None for the baseline setting.
        gt_pinned: ground-truth flag stored on every record for scoring.

    The handshake is a pure function of the client, the served chain and
    the time, so :meth:`handshake` computes it once per exact connection
    time: an app's used and idle connections to a host start together,
    while retries start a second later, and certificate validity windows
    and NSC pin-set expiry make the outcome time-dependent.
    """

    def __init__(
        self,
        client: ClientProfile,
        endpoint: ServerEndpoint,
        proxy: Optional[MITMProxy] = None,
        gt_pinned: bool = False,
    ):
        self.client = client
        self.endpoint = endpoint
        self.proxy = proxy
        self.gt_pinned = gt_pinned
        self.offered_suites = tuple(client.offered_suites)
        self.fingerprint = ja3_fingerprint(client.offered_versions, self.offered_suites)
        self._outcomes: Dict[int, HandshakeOutcome] = {}

    def handshake(self, when: Timestamp) -> HandshakeOutcome:
        """The handshake outcome of a connection started at ``when``."""
        outcome = self._outcomes.get(when.unix)
        if outcome is None:
            presented = (
                self.proxy.forge_chain(self.endpoint) if self.proxy is not None else None
            )
            outcome = perform_handshake(
                self.client, self.endpoint, when, presented_chain=presented
            )
            self._outcomes[when.unix] = outcome
        return outcome


def _transient_failure_trace(rng: DeterministicRng) -> ConnectionTrace:
    """A server-side failure: SYN-level or mid-handshake reset.

    These occur in both experiment settings and are the reason "failure
    under MITM" alone cannot prove pinning.
    """
    trace = ConnectionTrace()
    if rng.chance(0.5):
        trace.records.append(_RESET_CLIENT_HELLO)
    trace.teardown = TEARDOWN_RST
    return trace


def simulate_flow(
    destination: Destination,
    when: Timestamp,
    rng: DeterministicRng,
    *,
    payloads: Sequence[Payload] = (),
    app_id: str = "",
    platform: str = "",
    os_initiated: bool = False,
    transient_failure_prob: float = 0.0,
) -> FlowRecord:
    """Simulate one connection and return its capture record.

    Args:
        destination: the client, server and proxy of this connection.
        when: connection start time.
        rng: randomness for the trace and failure injection.
        payloads: application messages the app intends to send.  An empty
            sequence models a redundant connection that is established but
            never used.
        app_id / platform / os_initiated: capture metadata.
        transient_failure_prob: probability of a server-side failure
            unrelated to TLS interception.
    """
    proxy = destination.proxy
    if rng.chance(transient_failure_prob):
        outcome = _TRANSIENT_FAILURE
        trace = _transient_failure_trace(rng)
        sends_data = False
    else:
        outcome = destination.handshake(when)
        sends_data = bool(payloads) and outcome.success
        trace = synthesize_trace(
            outcome,
            rng,
            client_payload_records=len(payloads) if sends_data else 0,
            server_payload_records=len(payloads) if sends_data else 0,
            closes_cleanly=rng.chance(0.6),
        )
    return FlowRecord(
        sni=destination.endpoint.hostname,
        started_at=when,
        app_id=app_id,
        platform=platform,
        mitm_attempted=proxy is not None,
        version=outcome.version,
        cipher=outcome.cipher,
        offered_suites=destination.offered_suites,
        trace=trace,
        handshake_completed=outcome.success,
        # The proxy can read the traffic iff it terminated TLS, i.e. the
        # client accepted the forged chain.
        plaintext_visible=sends_data and proxy is not None,
        client_fingerprint=destination.fingerprint,
        os_initiated=os_initiated,
        _payloads=tuple(payloads) if sends_data else (),
        gt_pinned=destination.gt_pinned,
        gt_failure_reason=outcome.failure_reason,
    )
