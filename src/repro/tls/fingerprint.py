"""JA3-style client fingerprints.

Section 4.5 notes that iOS OS-initiated traffic "exhibits a similar TLS
fingerprint as regular app traffic", which is why the paper could not
separate the two by fingerprinting and had to exclude associated domains
instead.  The simulation reproduces that: OS services and apps on the same
platform share a client stack and therefore a fingerprint.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.core import obs
from repro.tls.ciphers import CipherSuite
from repro.tls.records import TLSVersion
from repro.util.digest import md5

#: Fingerprints by (version names, suite names), process-wide.
_JA3: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], str] = {}


def ja3_fingerprint(
    versions: Sequence[TLSVersion], suites: Sequence[CipherSuite]
) -> str:
    """Deterministic digest of the ClientHello-visible parameters.

    Same offered versions + suites (in order) ⇒ same fingerprint, as with
    real JA3.  The distinct (stack, configuration) population is tiny, so
    results are memoized process-wide, keyed by version and suite names
    (strings hash faster than the suite dataclasses).
    """
    key = tuple(v.value for v in versions), tuple(s.name for s in suites)
    fingerprint = _JA3.get(key)
    obs.cache_event("ja3", hit=fingerprint is not None)
    if fingerprint is None:
        material = ",".join(key[0]) + "|" + ",".join(key[1])
        fingerprint = _JA3[key] = md5(material.encode("ascii")).hexdigest()
    return fingerprint
