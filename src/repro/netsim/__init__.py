"""Network simulation: flow capture, MITM proxy, and the test hotspot.

This package plays the role of the paper's WiFi hotspot + mitmproxy +
packet capture (Figure 1, steps 4–6): every connection an app device makes
is recorded as a :class:`FlowRecord`; when interception is enabled, the
:class:`MITMProxy` forges certificate chains and — when the client accepts
them — exposes decrypted payloads.
"""

from repro.netsim.capture import TrafficCapture
from repro.netsim.flow import FlowRecord, Payload
from repro.netsim.proxy import MITMProxy
from repro.netsim.simulate import Destination, simulate_flow

__all__ = [
    "Destination",
    "FlowRecord",
    "MITMProxy",
    "Payload",
    "TrafficCapture",
    "simulate_flow",
]
