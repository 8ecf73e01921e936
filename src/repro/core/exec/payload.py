"""Compact pool-boundary encodings of pipeline results.

What a worker computes is not what the parent needs to receive.  Result
objects drag heavy context across the process boundary: static reports
carry full :class:`~repro.pki.certificate.Certificate` objects resolved
from the CT log (the parent has the same log), dynamic results carry
enum members, ciphersuite objects and per-flow dataclass overhead for
values drawn from small closed catalogs.  This module encodes each unit
result into slim tuples on the worker side and rehydrates real result
objects on the parent side, memoized against the parent corpus:

* **interning** — values repeated across a unit's flows (SNIs, offered
  suite lists, fingerprints, parsed certificates) are stored once in a
  per-payload table and referenced by index;
* **catalog references** — ciphersuites travel as IANA names resolved
  against :data:`~repro.tls.ciphers.ALL_SUITES`, enums as positional
  indices;
* **corpus-backed rehydration** — CT resolutions travel as the pin
  strings alone; the parent re-resolves them against *its own* CT log,
  which the determinism contract guarantees is identical to the
  worker's.

The codec is part of the engine's determinism contract: ``decode(encode
(result))`` must compare equal to the original result in every field
any analysis reads, so derived study artefacts stay bit-for-bit
identical to a serial run (``tests/test_exec_payload.py`` asserts the
round trip, ``tests/test_exec_engine.py`` the end-to-end parity).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.dynamic.detector import DestinationVerdict
from repro.core.dynamic.pipeline import DynamicAppResult
from repro.core.static.ctlookup import CTResolution
from repro.core.static.nsc_analysis import NSCAnalysis
from repro.core.static.report import StaticAppReport
from repro.core.static.search import CertificateFinding, PinFinding, ScanResult
from repro.netsim.capture import TrafficCapture
from repro.netsim.flow import FlowRecord, Payload
from repro.pki.certificate import ParsedCertificate
from repro.tls.ciphers import SUITES_BY_NAME, CipherSuite
from repro.tls.connection import ConnectionTrace
from repro.tls.records import ContentType, Direction, TLSRecord, TLSVersion
from repro.util.simtime import Timestamp

_MAGIC = "repro-unit-payload"
_VERSION = 1

# Closed catalogs: both sides run the same code, so positional indices
# are stable.  Enum definition order is source order.
_TLS_VERSIONS: Tuple[TLSVersion, ...] = tuple(TLSVersion)
_CONTENT_TYPES: Tuple[ContentType, ...] = tuple(ContentType)
_DIRECTIONS: Tuple[Direction, ...] = tuple(Direction)
_VERSION_INDEX = {member: i for i, member in enumerate(_TLS_VERSIONS)}
_CONTENT_INDEX = {member: i for i, member in enumerate(_CONTENT_TYPES)}
_DIRECTION_INDEX = {member: i for i, member in enumerate(_DIRECTIONS)}

# DestinationVerdict booleans, packed into one int.
_USED_DIRECT = 1
_MITM_OBSERVED = 2
_MITM_ALL_FAILED = 4
_PINNED = 8
_EXCLUDED = 16


class _Interner:
    """Builds the per-payload value table; equal values share one slot.

    Pickle's memo only dedupes identical *objects*; equal-but-distinct
    values (the same SNI string built per flow, the same offered-suite
    tuple per connection) each pickle in full.  Interning keys on
    equality, which is where the actual redundancy is.
    """

    def __init__(self):
        self.table: list = []
        self._index: dict = {}

    def intern(self, value) -> int:
        slot = self._index.get(value)
        if slot is None:
            slot = len(self.table)
            self._index[value] = slot
            self.table.append(value)
        return slot


def _encode_suite(suite: CipherSuite):
    """A catalog suite by name; off-catalog suites by value."""
    if SUITES_BY_NAME.get(suite.name) == suite:
        return suite.name
    return (suite.name, suite.min_version, suite.weak)


def _decode_suite(encoded) -> CipherSuite:
    if isinstance(encoded, str):
        return SUITES_BY_NAME[encoded]
    name, min_version, weak = encoded
    return CipherSuite(name, min_version, weak)


def _encode_flow(flow: FlowRecord, intern) -> tuple:
    trace = flow.trace
    return (
        intern(flow.sni),
        flow.started_at.unix,
        intern(flow.app_id),
        intern(flow.platform),
        flow.mitm_attempted,
        None if flow.version is None else _VERSION_INDEX[flow.version],
        None if flow.cipher is None else intern(_encode_suite(flow.cipher)),
        intern(tuple(_encode_suite(s) for s in flow.offered_suites)),
        tuple(
            (
                _CONTENT_INDEX[r.content_type],
                _DIRECTION_INDEX[r.direction],
                r.length,
                _CONTENT_INDEX[r.inner_type],
            )
            for r in trace.records
        ),
        intern(trace.teardown),
        flow.handshake_completed,
        flow.plaintext_visible,
        intern(flow.client_fingerprint),
        flow.os_initiated,
        tuple(
            (p.method, p.path, p.fields, p.headers) for p in flow._payloads
        ),
        flow.gt_pinned,
        intern(flow.gt_failure_reason),
    )


def _encode_verdict(verdict: DestinationVerdict) -> tuple:
    flags = (
        (_USED_DIRECT if verdict.used_direct else 0)
        | (_MITM_OBSERVED if verdict.mitm_observed else 0)
        | (_MITM_ALL_FAILED if verdict.mitm_all_failed else 0)
        | (_PINNED if verdict.pinned else 0)
        | (_EXCLUDED if verdict.excluded else 0)
    )
    return (verdict.destination, flags)


def _cert_tuple(certificate: ParsedCertificate) -> tuple:
    return (
        certificate.subject,
        certificate.issuer,
        certificate.serial,
        certificate.not_before.unix,
        certificate.not_after.unix,
        certificate.san,
        certificate.is_ca,
        certificate.spki_bytes,
        certificate.signature,
    )


def _encode_static(report: StaticAppReport, intern) -> tuple:
    scan = report.scan
    nsc = report.nsc
    return (
        report.app_id,
        report.platform,
        tuple(
            (f.path, intern(_cert_tuple(f.certificate)), f.channel)
            for f in scan.certificates
        ),
        tuple((f.path, f.pin, f.channel) for f in scan.pins),
        (
            nsc.uses_nsc,
            nsc.has_pins,
            tuple(nsc.pins),
            nsc.misconfigured_override,
            tuple(nsc.domains),
            tuple(nsc.overridden_domains),
        ),
        # The CT resolution travels as pin strings only; the parent
        # re-resolves them against its own (identical) CT log.
        tuple(report.ct.resolved.keys()),
        tuple(report.ct.unresolved),
        report.decryption_tool,
    )


def _encode_dynamic(result: DynamicAppResult, intern) -> tuple:
    return (
        result.app_id,
        result.platform,
        tuple(_encode_verdict(v) for v in result.verdicts.values()),
        tuple(_encode_flow(f, intern) for f in result.direct_capture.flows),
        tuple(_encode_flow(f, intern) for f in result.mitm_capture.flows),
        tuple(sorted(result.excluded_destinations)),
        result.reran_with_wait,
    )


def _encode_circumvent(result, intern) -> Optional[tuple]:
    if result is None:  # apps with nothing to circumvent
        return None
    return (
        result.app_id,
        result.platform,
        tuple(sorted(result.bypassed_destinations)),
        tuple(sorted(result.resistant_destinations)),
        tuple(_encode_flow(f, intern) for f in result.hooked_capture.flows),
    )


_ENCODERS = {
    "static": _encode_static,
    "dynamic": _encode_dynamic,
    "circumvent": _encode_circumvent,
}


def encode_unit(kind: str, results: list) -> tuple:
    """Encode one unit's result list for the trip to the parent.

    Unknown kinds pass through unencoded (forward compatibility for
    callers sharding their own unit kinds through the engine).
    """
    encoder = _ENCODERS.get(kind)
    if encoder is None:
        return (_MAGIC, _VERSION, kind, None, tuple(results))
    interner = _Interner()
    items = tuple(encoder(result, interner.intern) for result in results)
    return (_MAGIC, _VERSION, kind, tuple(interner.table), items)


class Rehydrator:
    """Parent-side decoder, memoized against the parent corpus.

    One instance lives for an engine's lifetime, so shared decodes
    (bundled SDK certificates, repeated offered-suite lists, CT pin
    resolutions) are paid once per study, not once per unit.
    """

    def __init__(self, corpus):
        self._ctlog = corpus.registry.ctlog
        self._certs: Dict[tuple, ParsedCertificate] = {}
        self._suites: Dict[tuple, Tuple[CipherSuite, ...]] = {}
        self._resolved: Dict[str, list] = {}

    # -- shared decodes ----------------------------------------------------

    def _certificate(self, encoded: tuple) -> ParsedCertificate:
        cached = self._certs.get(encoded)
        if cached is None:
            (sub, iss, serial, nb, na, san, is_ca, spki, sig) = encoded
            cached = ParsedCertificate(
                subject=sub,
                issuer=iss,
                serial=serial,
                not_before=Timestamp(nb),
                not_after=Timestamp(na),
                san=san,
                is_ca=is_ca,
                spki_bytes=spki,
                signature=sig,
            )
            self._certs[encoded] = cached
        return cached

    def _offered_suites(self, encoded: tuple) -> Tuple[CipherSuite, ...]:
        cached = self._suites.get(encoded)
        if cached is None:
            cached = tuple(_decode_suite(e) for e in encoded)
            self._suites[encoded] = cached
        return cached

    def _resolve_pin(self, pin: str) -> list:
        hits = self._resolved.get(pin)
        if hits is None:
            hits = self._ctlog.search_pin(pin)
            if not hits:
                raise ValueError(
                    f"pin {pin!r} resolved in a worker's CT log but not the "
                    "parent's — the worker corpus diverged from the parent "
                    "(was the corpus mutated after generation? use "
                    "bootstrap='pickle')"
                )
            self._resolved[pin] = hits
        return list(hits)  # CTResolution holds mutable lists

    # -- per-kind decodes --------------------------------------------------

    def _decode_flow(self, encoded: tuple, table: tuple) -> FlowRecord:
        (
            sni,
            started_unix,
            app_id,
            platform,
            mitm_attempted,
            version,
            cipher,
            offered,
            records,
            teardown,
            handshake_completed,
            plaintext_visible,
            client_fingerprint,
            os_initiated,
            payloads,
            gt_pinned,
            gt_failure_reason,
        ) = encoded
        return FlowRecord(
            sni=table[sni],
            started_at=Timestamp(started_unix),
            app_id=table[app_id],
            platform=table[platform],
            mitm_attempted=mitm_attempted,
            version=None if version is None else _TLS_VERSIONS[version],
            cipher=None if cipher is None else _decode_suite(table[cipher]),
            offered_suites=self._offered_suites(table[offered]),
            trace=ConnectionTrace(
                records=[
                    TLSRecord(
                        content_type=_CONTENT_TYPES[ct],
                        direction=_DIRECTIONS[d],
                        length=length,
                        inner_type=_CONTENT_TYPES[inner],
                    )
                    for ct, d, length, inner in records
                ],
                teardown=table[teardown],
            ),
            handshake_completed=handshake_completed,
            plaintext_visible=plaintext_visible,
            client_fingerprint=table[client_fingerprint],
            os_initiated=os_initiated,
            _payloads=tuple(
                Payload(method, path, fields, headers)
                for method, path, fields, headers in payloads
            ),
            gt_pinned=gt_pinned,
            gt_failure_reason=table[gt_failure_reason],
        )

    def _decode_static(self, encoded: tuple, table: tuple) -> StaticAppReport:
        (
            app_id,
            platform,
            certs,
            pins,
            nsc,
            resolved_pins,
            unresolved,
            decryption_tool,
        ) = encoded
        uses_nsc, has_pins, nsc_pins, misconfig, domains, overridden = nsc
        resolved: Dict[str, List] = {}
        for pin in resolved_pins:
            resolved[pin] = self._resolve_pin(pin)
        return StaticAppReport(
            app_id=app_id,
            platform=platform,
            scan=ScanResult(
                certificates=[
                    CertificateFinding(
                        path=path,
                        certificate=self._certificate(table[cert]),
                        channel=channel,
                    )
                    for path, cert, channel in certs
                ],
                pins=[
                    PinFinding(path=path, pin=pin, channel=channel)
                    for path, pin, channel in pins
                ],
            ),
            nsc=NSCAnalysis(
                uses_nsc=uses_nsc,
                has_pins=has_pins,
                pins=list(nsc_pins),
                misconfigured_override=misconfig,
                domains=list(domains),
                overridden_domains=list(overridden),
            ),
            ct=CTResolution(resolved=resolved, unresolved=list(unresolved)),
            decryption_tool=decryption_tool,
        )

    def _decode_dynamic(self, encoded: tuple, table: tuple) -> DynamicAppResult:
        (
            app_id,
            platform,
            verdicts,
            direct,
            mitm,
            excluded,
            reran_with_wait,
        ) = encoded
        decoded_verdicts: Dict[str, DestinationVerdict] = {}
        for destination, flags in verdicts:
            decoded_verdicts[destination] = DestinationVerdict(
                destination=destination,
                used_direct=bool(flags & _USED_DIRECT),
                mitm_observed=bool(flags & _MITM_OBSERVED),
                mitm_all_failed=bool(flags & _MITM_ALL_FAILED),
                pinned=bool(flags & _PINNED),
                excluded=bool(flags & _EXCLUDED),
            )
        return DynamicAppResult(
            app_id=app_id,
            platform=platform,
            verdicts=decoded_verdicts,
            direct_capture=TrafficCapture(
                self._decode_flow(f, table) for f in direct
            ),
            mitm_capture=TrafficCapture(
                self._decode_flow(f, table) for f in mitm
            ),
            excluded_destinations=set(excluded),
            reran_with_wait=reran_with_wait,
        )

    def _decode_circumvent(self, encoded, table: tuple):
        from repro.core.circumvent.pipeline import CircumventionResult

        if encoded is None:
            return None
        app_id, platform, bypassed, resistant, flows = encoded
        return CircumventionResult(
            app_id=app_id,
            platform=platform,
            bypassed_destinations=set(bypassed),
            resistant_destinations=set(resistant),
            hooked_capture=TrafficCapture(
                self._decode_flow(f, table) for f in flows
            ),
        )

    # -- entry point -------------------------------------------------------

    def decode_unit(self, payload: tuple) -> list:
        """Decode one encoded unit payload back into result objects."""
        if (
            not isinstance(payload, tuple)
            or len(payload) != 5
            or payload[0] != _MAGIC
        ):
            raise ValueError("not an encoded unit payload")
        _magic, version, kind, table, items = payload
        if version != _VERSION:
            raise ValueError(f"unknown payload version {version!r}")
        if table is None:  # unknown kind: passed through unencoded
            return list(items)
        if kind == "static":
            return [self._decode_static(item, table) for item in items]
        if kind == "dynamic":
            return [self._decode_dynamic(item, table) for item in items]
        if kind == "circumvent":
            return [self._decode_circumvent(item, table) for item in items]
        raise ValueError(f"unknown encoded unit kind: {kind!r}")
