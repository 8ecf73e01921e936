"""Flow records — the capture unit everything downstream consumes.

A :class:`FlowRecord` is one TCP/TLS connection as the capture box saw it:
SNI, offered and negotiated TLS parameters, the record trace, the TCP
teardown, and — only when the proxy terminated TLS — decrypted payloads.
A :class:`FlowFacts` row is the little of it the analysis reads.

Ground-truth fields (``gt_*``) record what *actually* happened so tests can
score detector precision/recall; analysis code never reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from operator import attrgetter
from typing import Callable, FrozenSet, Iterable, Optional, Tuple

from repro.errors import AnalysisError
from repro.tls.ciphers import CipherSuite, advertises_weak
from repro.tls.connection import ConnectionTrace
from repro.tls.records import TLSVersion
from repro.util.simtime import Timestamp


@dataclass(frozen=True)
class Payload:
    """One application-layer message (HTTP-ish) inside a connection.

    Attributes:
        method: HTTP method.
        path: request path.
        fields: flattened key→value body/query fields.  PII hides in here.
        headers: request headers.
    """

    method: str = "POST"
    path: str = "/"
    fields: Tuple[Tuple[str, str], ...] = ()
    headers: Tuple[Tuple[str, str], ...] = ()

    def flattened(self) -> str:
        """Single-string rendering the PII scanner greps."""
        parts = [self.method, self.path]
        parts.extend(f"{k}={v}" for k, v in self.fields)
        parts.extend(f"{k}: {v}" for k, v in self.headers)
        return "\n".join(parts)

    def __reduce__(self):
        return _shared_payload, (self.method, self.path, self.fields, self.headers)


@lru_cache(maxsize=1 << 15)
def _shared_payload(method: str, path: str, fields: tuple, headers: tuple) -> Payload:
    """Unpickle a payload as one shared instance per value.

    Stored captures repeat the same few thousand messages across apps.
    The cache is bounded so a long-lived process does not keep every
    payload it ever decoded.
    """
    return Payload(method, path, fields, headers)


@dataclass
class FlowRecord:
    """One captured connection."""

    sni: str
    started_at: Timestamp
    app_id: str = ""
    platform: str = ""
    mitm_attempted: bool = False
    version: Optional[TLSVersion] = None
    cipher: Optional[CipherSuite] = None
    offered_suites: Tuple[CipherSuite, ...] = ()
    trace: ConnectionTrace = field(default_factory=ConnectionTrace)
    handshake_completed: bool = False
    plaintext_visible: bool = False
    client_fingerprint: str = ""
    os_initiated: bool = False
    _payloads: Tuple[Payload, ...] = ()
    # Ground truth (tests only):
    gt_pinned: bool = False
    gt_failure_reason: str = ""

    def decrypted_payloads(self) -> Tuple[Payload, ...]:
        """Payloads, available only when the proxy terminated TLS.

        Raises:
            AnalysisError: if called on a flow the proxy could not decrypt —
                guarding against analysis code accidentally peeking at
                ground truth.
        """
        if not self.plaintext_visible:
            raise AnalysisError(
                f"flow to {self.sni!r} was not decrypted; payloads unavailable"
            )
        return self._payloads

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "mitm" if self.mitm_attempted else "direct"
        return f"FlowRecord({self.sni!r}, {state}, teardown={self.trace.teardown})"

    def __reduce__(self):
        # Unpickle through __init__: a stored capture decodes ~1/3 faster
        # than by restoring a state dict, and keeps no separate __dict__.
        return FlowRecord, _flow_fields(self)


_flow_fields = attrgetter(*(item.name for item in fields(FlowRecord)))


@dataclass(frozen=True)
class FlowFacts:
    """What the analysis reads of one captured flow.

    Table 8 reads ``weak_offer``; Table 9 reads the rest.  Rows are
    shared: :func:`flow_facts` and unpickling both return one instance
    per value (a study's captures hold ~7x fewer distinct rows than
    flows).

    Attributes:
        sni: the flow's SNI, as captured.
        weak_offer: the ClientHello advertised a weak suite (Table 8's
            per-connection test).
        plaintext: the proxy decrypted the flow.
        os_initiated: the OS, not the app, opened the connection.
        pii: the PII types found in the decrypted payloads (empty for a
            flow that was not decrypted).
    """

    sni: str
    weak_offer: bool
    plaintext: bool
    os_initiated: bool
    pii: FrozenSet[str]

    def __reduce__(self):
        return _shared_facts, (
            self.sni,
            self.weak_offer,
            self.plaintext,
            self.os_initiated,
            self.pii,
        )


@lru_cache(maxsize=1 << 15)
def _shared_facts(
    sni: str, weak_offer: bool, plaintext: bool, os_initiated: bool, pii: frozenset
) -> FlowFacts:
    """One shared :class:`FlowFacts` per value (bounded, like
    :func:`_shared_payload`).

    The row keeps a string of its own for the SNI.  Holding the string of
    the flow it was first built from would make a result pickle
    differently (shared or not with its flows' SNIs) depending on which
    run built the row.
    """
    return FlowFacts(sni.encode().decode(), weak_offer, plaintext, os_initiated, pii)


#: One instance per PII type set (there are at most 2**7), so that the
#: rows and their cache keys share them.
_PII_SETS: dict = {}


def flow_facts(
    flows: Iterable[FlowRecord], pii_types: Callable[[FlowRecord], FrozenSet[str]]
) -> Tuple[FlowFacts, ...]:
    """One facts row per flow, in order; ``pii_types`` is asked about the
    decrypted flows only."""
    # The flows to one destination share their offered-suites tuple.
    weak: dict = {}
    rows = []
    for flow in flows:
        suites = flow.offered_suites
        weak_offer = weak.get(id(suites))
        if weak_offer is None:
            weak_offer = weak[id(suites)] = advertises_weak(suites)
        plaintext = flow.plaintext_visible
        pii = pii_types(flow) if plaintext else frozenset()
        pii = _PII_SETS.setdefault(pii, pii)
        rows.append(_shared_facts(flow.sni, weak_offer, plaintext, flow.os_initiated, pii))
    return tuple(rows)
