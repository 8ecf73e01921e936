"""Device emulation.

Stands in for the paper's testbed hardware: a Pixel 3 on a modified
Android 11 factory image (mitmproxy CA in the *system* store) and a
jailbroken iPhone X on iOS 13.6 (mitmproxy root trusted; checkra1n enables
app decryption and Frida).  The :class:`AutomationHarness` reproduces the
dynamic-pipeline loop: install → capture for a sleep window → uninstall,
including iOS background traffic and associated-domains verification.
"""

from repro.util.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "AndroidDevice": "android",
        "AutomationHarness": "automation",
        "RunConfig": "automation",
        "Device": "base",
        "DeviceIdentifiers": "identifiers",
        "PII_PLACEHOLDER_PREFIX": "identifiers",
        "APPLE_BACKGROUND_DOMAINS": "ios",
        "IOSDevice": "ios",
    },
)

__all__ = [
    "APPLE_BACKGROUND_DOMAINS",
    "AndroidDevice",
    "AutomationHarness",
    "Device",
    "DeviceIdentifiers",
    "IOSDevice",
    "PII_PLACEHOLDER_PREFIX",
    "RunConfig",
]
