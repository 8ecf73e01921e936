"""Differential pinning detection (Section 4.2.2).

A destination is marked **pinned** when:

* at least one of its connections in the *non-MITM* capture was used, and
* it has connections in the *MITM* capture, all of which failed.

The point of the differential is the confounders: TLS alerts and resets
occur for non-pinning reasons (version mismatches, server flakiness), and
apps open redundant connections they never use.  The naive detector — mark
pinned on any MITM failure — is implemented alongside for the ablation
that quantifies exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Set

from repro.netsim.capture import TrafficCapture
from repro.servers.parties import registrable_domain

#: Detector variants selectable as a pipeline config knob.  ``full`` is
#: the paper's differential detector; the other two are the Section 5
#: ablations (the sweep's ``detector`` axis selects among the same
#: names).
DETECTOR_VARIANTS = ("full", "no-tls13", "naive")


@dataclass
class DestinationVerdict:
    """Per-destination detection outcome.

    Attributes:
        destination: the SNI hostname.
        used_direct: carried data in the baseline setting.
        mitm_observed: appeared in the interception capture.
        mitm_all_failed: every interception connection failed.
        pinned: the differential verdict.
        excluded: dropped before detection (iOS background handling).
    """

    destination: str
    used_direct: bool = False
    mitm_observed: bool = False
    mitm_all_failed: bool = False
    pinned: bool = False
    excluded: bool = False


def _apply_exclusions(
    destinations: Set[str], excluded_domains: Iterable[str]
) -> Set[str]:
    """Resolve the exclusion list against observed destinations.

    A *registrable-domain* entry (``icloud.com``) excludes all its
    subdomains — the treatment for Apple background domains.  A deeper
    hostname entry (``www.vendor.com``, an associated domain) excludes
    exactly that host: excluding the whole registrable domain would wipe
    out legitimately pinned sibling hosts like ``api.vendor.com``.
    """
    exact: Set[str] = set()
    wide: Set[str] = set()
    for entry in excluded_domains:
        entry = entry.lower()
        if entry == registrable_domain(entry):
            wide.add(entry)
        else:
            exact.add(entry)
    return {
        d
        for d in destinations
        if d in exact or registrable_domain(d) in wide
    }


def detect_pinned_destinations(
    direct: TrafficCapture,
    intercepted: TrafficCapture,
    excluded_domains: Iterable[str] = (),
    tls13_heuristics: bool = True,
) -> Dict[str, DestinationVerdict]:
    """Run the differential detector over one app's two captures.

    Args:
        direct: the non-MITM capture.
        intercepted: the MITM capture.
        excluded_domains: registrable domains to drop (Apple background
            domains, the app's associated domains).
        tls13_heuristics: apply the Section 4.2.2 TLS 1.3 used-connection
            rules; ``False`` runs the ablation, degrading *both* the
            used-direct and the all-failed legs of the differential.

    Returns:
        destination → verdict, including excluded destinations (marked).
    """
    from repro.core.dynamic.classify import connection_failed, connection_used

    destinations = direct.destinations() | intercepted.destinations()
    excluded = _apply_exclusions(destinations, excluded_domains)

    direct_by_dest = direct.by_destination()
    mitm_by_dest = intercepted.by_destination()

    verdicts: Dict[str, DestinationVerdict] = {}
    for destination in sorted(destinations):
        verdict = DestinationVerdict(destination=destination)
        if destination in excluded:
            verdict.excluded = True
            verdicts[destination] = verdict
            continue

        direct_flows = direct_by_dest.get(destination, [])
        mitm_flows = mitm_by_dest.get(destination, [])
        verdict.used_direct = any(
            connection_used(f, tls13_heuristics=tls13_heuristics)
            for f in direct_flows
        )
        verdict.mitm_observed = bool(mitm_flows)
        verdict.mitm_all_failed = bool(mitm_flows) and all(
            connection_failed(f, tls13_heuristics=tls13_heuristics)
            for f in mitm_flows
        )
        verdict.pinned = verdict.used_direct and verdict.mitm_all_failed
        verdicts[destination] = verdict
    return verdicts


def detect_verdicts(
    direct: TrafficCapture,
    intercepted: TrafficCapture,
    excluded_domains: Iterable[str] = (),
    detector: str = "full",
) -> Dict[str, DestinationVerdict]:
    """Run one named detector variant over an app's captures.

    The single entry point the dynamic stage graph's ``detect`` stage
    calls, keyed by the ``detector`` config knob.  ``full`` and
    ``no-tls13`` are the differential detector with and without the
    TLS 1.3 heuristics.  ``naive`` keeps the full detector's verdict
    universe (so downstream consumers see the same destinations and
    exclusion markings) but overwrites ``pinned`` with the
    any-MITM-failure flag — exactly the rewrite the sweep's detector
    ablation applies.
    """
    if detector == "full":
        return detect_pinned_destinations(
            direct, intercepted, excluded_domains
        )
    if detector == "no-tls13":
        return detect_pinned_destinations(
            direct, intercepted, excluded_domains, tls13_heuristics=False
        )
    if detector == "naive":
        flagged = naive_detect_pinned_destinations(
            intercepted, excluded_domains
        )
        verdicts = detect_pinned_destinations(
            direct, intercepted, excluded_domains
        )
        return {
            destination: DestinationVerdict(
                destination=destination,
                used_direct=verdict.used_direct,
                mitm_observed=verdict.mitm_observed,
                mitm_all_failed=verdict.mitm_all_failed,
                pinned=destination in flagged,
                excluded=verdict.excluded,
            )
            for destination, verdict in verdicts.items()
        }
    raise ValueError(
        f"unknown detector {detector!r}; expected one of {DETECTOR_VARIANTS}"
    )


def naive_detect_pinned_destinations(
    intercepted: TrafficCapture,
    excluded_domains: Iterable[str] = (),
    tls13_heuristics: bool = True,
) -> Set[str]:
    """Ablation baseline: any MITM failure ⇒ pinned.

    No baseline capture, no used-connection requirement — the approach the
    differential design exists to improve on.  ``tls13_heuristics`` is
    threaded into the failure classification so the TLS 1.3 ablation
    composes with this one.
    """
    from repro.core.dynamic.classify import connection_failed

    destinations = intercepted.destinations()
    excluded = _apply_exclusions(destinations, excluded_domains)
    flagged: Set[str] = set()
    for destination, flows in intercepted.by_destination().items():
        if destination in excluded:
            continue
        if any(
            connection_failed(f, tls13_heuristics=tls13_heuristics)
            for f in flows
        ):
            flagged.add(destination)
    return flagged
