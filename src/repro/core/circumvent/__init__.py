"""Pinning circumvention via run-time instrumentation (Section 4.3).

Frida hooks into known TLS libraries and disables their certificate
checks; apps using custom TLS stacks resist.  In the paper this unlocked
~51.5 % of pinned destinations on Android and ~66.2 % on iOS.
"""

from repro.util.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "FridaSession": "frida",
        "InstrumentationOutcome": "frida",
        "HOOK_CATALOG": "hooks",
        "is_hookable": "hooks",
        "CircumventionPipeline": "pipeline",
        "CircumventionResult": "pipeline",
    },
)

__all__ = [
    "CircumventionPipeline",
    "CircumventionResult",
    "FridaSession",
    "HOOK_CATALOG",
    "InstrumentationOutcome",
    "is_hookable",
]
