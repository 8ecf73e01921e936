"""Capture serialization.

The paper released its dataset alongside the code; this module gives the
reproduction the same property: captures round-trip through plain JSON so
detector runs can be archived, shared, and re-analyzed without re-running
the simulation.

Ground-truth fields are preserved (they are what makes an archived
capture useful for evaluating new detectors), but payload contents are
only written for flows that were actually decrypted — an archived capture
leaks nothing an on-path observer would not have had.
"""

from __future__ import annotations

import json

from repro.errors import EncodingError
from repro.netsim.capture import TrafficCapture
from repro.netsim.flow import FlowRecord, Payload
from repro.tls.ciphers import SUITES_BY_NAME
from repro.tls.connection import ConnectionTrace
from repro.tls.records import ContentType, Direction, TLSRecord, TLSVersion
from repro.util.simtime import Timestamp

FORMAT_VERSION = 1


def flow_to_dict(flow: FlowRecord) -> dict:
    """One flow as a JSON-safe dict."""
    return {
        "sni": flow.sni,
        "started_at": flow.started_at.unix,
        "app_id": flow.app_id,
        "platform": flow.platform,
        "mitm_attempted": flow.mitm_attempted,
        "version": flow.version.value if flow.version else None,
        "cipher": flow.cipher.name if flow.cipher else None,
        "offered_suites": [s.name for s in flow.offered_suites],
        "handshake_completed": flow.handshake_completed,
        "plaintext_visible": flow.plaintext_visible,
        "client_fingerprint": flow.client_fingerprint,
        "os_initiated": flow.os_initiated,
        "teardown": flow.trace.teardown,
        "records": [
            {
                "type": r.content_type.value,
                "dir": r.direction.value,
                "len": r.length,
            }
            for r in flow.trace.records
        ],
        "payloads": [
            {
                "method": p.method,
                "path": p.path,
                "fields": [list(kv) for kv in p.fields],
            }
            for p in (flow._payloads if flow.plaintext_visible else ())
        ],
        "gt_pinned": flow.gt_pinned,
        "gt_failure_reason": flow.gt_failure_reason,
    }


def flow_from_dict(data: dict) -> FlowRecord:
    """Inverse of :func:`flow_to_dict`.

    Raises:
        EncodingError: on malformed input.
    """
    try:
        records = [
            TLSRecord(
                ContentType(r["type"]),
                Direction(r["dir"]),
                int(r["len"]),
            )
            for r in data["records"]
        ]
        payloads = tuple(
            Payload(
                method=p["method"],
                path=p["path"],
                fields=tuple((k, v) for k, v in p["fields"]),
            )
            for p in data.get("payloads", [])
        )
        version = TLSVersion(data["version"]) if data.get("version") else None
        cipher = (
            SUITES_BY_NAME.get(data["cipher"]) if data.get("cipher") else None
        )
        return FlowRecord(
            sni=data["sni"],
            started_at=Timestamp(int(data["started_at"])),
            app_id=data.get("app_id", ""),
            platform=data.get("platform", ""),
            mitm_attempted=bool(data.get("mitm_attempted", False)),
            version=version,
            cipher=cipher,
            offered_suites=tuple(
                SUITES_BY_NAME[name]
                for name in data.get("offered_suites", [])
                if name in SUITES_BY_NAME
            ),
            trace=ConnectionTrace(
                records=records, teardown=data.get("teardown", "open")
            ),
            handshake_completed=bool(data.get("handshake_completed", False)),
            plaintext_visible=bool(data.get("plaintext_visible", False)),
            client_fingerprint=data.get("client_fingerprint", ""),
            os_initiated=bool(data.get("os_initiated", False)),
            _payloads=payloads,
            gt_pinned=bool(data.get("gt_pinned", False)),
            gt_failure_reason=data.get("gt_failure_reason", ""),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise EncodingError(f"malformed flow record: {exc}") from exc


def dump_capture(capture: TrafficCapture) -> str:
    """Serialize a capture to a JSON string."""
    return json.dumps(
        {
            "format": FORMAT_VERSION,
            "flows": [flow_to_dict(f) for f in capture],
        }
    )


def load_capture(text: str) -> TrafficCapture:
    """Parse a capture serialized by :func:`dump_capture`.

    Raises:
        EncodingError: on malformed JSON or unsupported format version.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EncodingError(f"not a capture document: {exc}") from exc
    if payload.get("format") != FORMAT_VERSION:
        raise EncodingError(
            f"unsupported capture format: {payload.get('format')!r}"
        )
    return TrafficCapture(flow_from_dict(f) for f in payload.get("flows", []))
