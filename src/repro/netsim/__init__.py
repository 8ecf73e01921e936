"""Network simulation: flow capture, MITM proxy, and the test hotspot.

This package plays the role of the paper's WiFi hotspot + mitmproxy +
packet capture (Figure 1, steps 4–6): every connection an app device makes
is recorded as a :class:`FlowRecord`; when interception is enabled, the
:class:`MITMProxy` forges certificate chains and — when the client accepts
them — exposes decrypted payloads.
"""

from repro.util.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "TrafficCapture": "capture",
        "FlowRecord": "flow",
        "Payload": "flow",
        "MITMProxy": "proxy",
        "Destination": "simulate",
        "simulate_flow": "simulate",
    },
)

__all__ = [
    "Destination",
    "FlowRecord",
    "MITMProxy",
    "Payload",
    "TrafficCapture",
    "simulate_flow",
]
