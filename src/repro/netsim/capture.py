"""Traffic captures.

A :class:`TrafficCapture` is the pcap of one experiment run: an ordered
list of :class:`FlowRecord` with filtering helpers the dynamic pipeline
uses (per-app, per-destination, direct vs intercepted).  No finished
result holds one: a capture is a stage artifact, made again by re-running
its stage (:meth:`~repro.core.dynamic.pipeline.DynamicPipeline.captures`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set

from repro.netsim.flow import FlowRecord


class TrafficCapture:
    """An ordered collection of captured flows."""

    def __init__(self, flows: Iterable[FlowRecord] = ()):
        self.flows: List[FlowRecord] = list(flows)

    def add(self, flow: FlowRecord) -> None:
        self.flows.append(flow)

    def __len__(self) -> int:
        return len(self.flows)

    def __iter__(self) -> Iterator[FlowRecord]:
        return iter(self.flows)

    # -- filters -------------------------------------------------------------

    def for_destination(self, sni: str) -> "TrafficCapture":
        sni = sni.lower()
        return TrafficCapture(f for f in self.flows if f.sni.lower() == sni)

    def destinations(self) -> Set[str]:
        """Distinct SNI values (99 % of study flows had a non-empty SNI)."""
        return {f.sni.lower() for f in self.flows if f.sni}

    def by_destination(self) -> Dict[str, List[FlowRecord]]:
        grouped: Dict[str, List[FlowRecord]] = {}
        for flow in self.flows:
            if flow.sni:
                grouped.setdefault(flow.sni.lower(), []).append(flow)
        return grouped
