"""Traffic captures.

A :class:`TrafficCapture` is the pcap of one experiment run: an ordered
list of :class:`FlowRecord` with filtering helpers the dynamic pipeline
uses (per-app, per-destination, direct vs intercepted).  A capture in a
finished result is often :meth:`~TrafficCapture.deferred`: served from the
result store, its flows are decoded from the pack when first read; built
without a store, they are made again by its harness run
(:attr:`~TrafficCapture.rerun`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set

from repro.netsim.flow import FlowRecord


class TrafficCapture:
    """An ordered collection of captured flows."""

    #: For a capture a harness run made, that same call
    #: (``() -> TrafficCapture``): a result built without a store holds
    #: ``deferred(capture.rerun)`` instead of the capture.
    rerun: Optional[Callable[[], "TrafficCapture"]] = None

    def __init__(self, flows: Iterable[FlowRecord] = ()):
        self.flows: List[FlowRecord] = list(flows)

    @classmethod
    def deferred(cls, load: Callable[[], "TrafficCapture"]) -> "TrafficCapture":
        """A capture whose flows are those of ``load()``, called on first
        use."""
        capture = cls.__new__(cls)
        capture._load = load
        return capture

    def __getattr__(self, name: str):
        # Reached only for a missing attribute: the flows of a deferred
        # capture not read yet.
        load = self.__dict__.pop("_load", None) if name == "flows" else None
        if load is None:
            raise AttributeError(name)
        self.flows = load().flows
        return self.flows

    def __reduce__(self):
        return TrafficCapture, (self.flows,)

    def add(self, flow: FlowRecord) -> None:
        self.flows.append(flow)

    def extend(self, flows: Iterable[FlowRecord]) -> None:
        self.flows.extend(flows)

    def __len__(self) -> int:
        return len(self.flows)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self.flows)

    # -- filters -------------------------------------------------------------

    def for_app(self, app_id: str) -> "TrafficCapture":
        return TrafficCapture(f for f in self.flows if f.app_id == app_id)

    def for_destination(self, sni: str) -> "TrafficCapture":
        sni = sni.lower()
        return TrafficCapture(f for f in self.flows if f.sni.lower() == sni)

    def without_os_traffic(self) -> "TrafficCapture":
        """Drop OS-initiated flows.

        Note: the real study could *not* do this directly (OS and app flows
        share a fingerprint); it is available here for ablations that
        quantify how much the associated-domains exclusion loses.
        """
        return TrafficCapture(f for f in self.flows if not f.os_initiated)

    def excluding_destinations(self, hostnames: Iterable[str]) -> "TrafficCapture":
        excluded: Set[str] = {h.lower() for h in hostnames}
        return TrafficCapture(
            f for f in self.flows if f.sni.lower() not in excluded
        )

    def destinations(self) -> Set[str]:
        """Distinct SNI values (99 % of study flows had a non-empty SNI)."""
        return {f.sni.lower() for f in self.flows if f.sni}

    def by_destination(self) -> Dict[str, List[FlowRecord]]:
        grouped: Dict[str, List[FlowRecord]] = {}
        for flow in self.flows:
            if flow.sni:
                grouped.setdefault(flow.sni.lower(), []).append(flow)
        return grouped

    def app_ids(self) -> Set[str]:
        return {f.app_id for f in self.flows if f.app_id}
