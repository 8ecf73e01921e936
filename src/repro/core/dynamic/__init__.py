"""Dynamic analysis pipeline (Section 4.2).

Run every app twice — without and with TLS interception — and mark a
destination *pinned* when it carries application data in the baseline but
always fails under interception.  The used/failed classifiers work from
wire-visible record patterns only (including the TLS 1.3 heuristics);
ground-truth flow fields are never consulted.
"""

from repro.util.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "ios_excluded_destinations": "background",
        "connection_failed": "classify",
        "connection_used": "classify",
        "DestinationVerdict": "detector",
        "detect_pinned_destinations": "detector",
        "naive_detect_pinned_destinations": "detector",
        "DynamicAppResult": "pipeline",
        "DynamicPipeline": "pipeline",
    },
)

__all__ = [
    "DestinationVerdict",
    "DynamicAppResult",
    "DynamicPipeline",
    "connection_failed",
    "connection_used",
    "detect_pinned_destinations",
    "ios_excluded_destinations",
    "naive_detect_pinned_destinations",
]
